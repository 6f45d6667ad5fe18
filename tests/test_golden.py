"""Golden CLI transcript: exact output of a fixed set of requests.

Every request below runs in process through ``geobracket.cli.main``; its
exit code, stdout and stderr are rendered into one transcript that must
equal ``golden/cli_transcript.txt`` byte for byte.  The requests are the
README ``bracket`` and ``classical`` examples, seeded ``bracket`` and
``classical`` draws (every bracket kind, 1-D and 2-D, powers up to 40, text
and ``--json``), two high derivative powers against polynomial and
exponential operands, and a short ``verify`` run.  Grid output is left out:
its floats depend on the BLAS build.

After an intended output change, rewrite the golden file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import shlex

from geobracket import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_transcript.txt"

README = [
    ["bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qcpb"],
    ["bracket", "--s", "0", "--a", "x1", "--b=-i*d1"],
    ["classical", "--s", "x1^2", "--f", "x1", "--g", "x2^2"],
]

SEEDED = [
    ["bracket", "--s", "1/3 - 1/2*x1^3", "--a=2i*x1^2*x1^40*d1 - (1/2 + i)*x1^2", "--b=2*d1^2", "--kind", "geo", "--json"],
    ["bracket", "--s", "2*x1^3 - 2*x1", "--a=5/4*x1^2*x1^33*d1 - 3/2*x1", "--b=1/2i*d1", "--kind", "geo"],
    ["bracket", "--s", "1/2*x1^2 + 2", "--a=i*d1*x1*x1^37 - 2*exp(i*x1)", "--b=1/3*d1", "--kind", "qcpb"],
    ["bracket", "--s", "3/4*x1^2*x2^2 + 1/3", "--a=(1/2 + i)*x2^2*d1 - 2*x2*exp(i*x2)", "--b=1/3*x1^2*x2*d1", "--kind", "qpb", "--dim", "2", "--json"],
    ["bracket", "--s", "x1 + 1/2*x1 - (exp(i*x1) + exp(-i*x1))", "--a=2i*d1*x1^2*x1^22 - 1", "--b=5/4*x1*d1^2", "--kind", "qpb"],
    ["bracket", "--s", "2 + 3/4*x1 - (exp(i*x1) + exp(-i*x1))", "--a=i*d1*x1^2*x1^25 - (1/2 + i)*x1^2", "--b=x1^2*d1^2", "--kind", "qcpb", "--json"],
    ["bracket", "--s", "2*x1 - 1/3", "--a=5/4*x1^2*x2*d2 + 1/3*x1^2*x2", "--b=1/2i*d1^2*x1^2*x2^2", "--kind", "geo", "--dim", "2", "--json"],
    ["bracket", "--s", "2*x1^3*x2^3 - 3/4*x2^2", "--a=2i*d2*x1^22 - 1/2i*x1^2", "--b=3/2*d2^2", "--kind", "qcpb"],
    ["bracket", "--s", "x1^3 + 3/4*x1^3", "--a=d1*x1 - 1", "--b=1/2i*x1^2*d1", "--kind", "qpb"],
    ["bracket", "--s", "2*x1^2 + 3/4*x1", "--a=2i*d1 + 1/3*x1^2", "--b=2i*d1*x1*exp(i*x1)", "--kind", "qcpb"],
    ["bracket", "--s", "2 - 3/4*x1^3", "--a=x1*d1 + i", "--b=1/2i*x1^2*d1^2", "--kind", "geo", "--json"],
    ["bracket", "--s", "1 - 3/4*x1", "--a=(1/2 + i)*x1^2*x1^35*d1 - exp(i*x1)", "--b=5/4*d1^2", "--kind", "geo"],
    ["bracket", "--s", "x1^3 + 3/4*x1^3 + (exp(i*x1) + exp(-i*x1))", "--a=3/2*d1*x1^2 + 5/4*x1", "--b=(1/2 + i)*x1*d1", "--kind", "qpb", "--json"],
    ["bracket", "--s", "2*x1 + 1/2*x1*x2^3 - (exp(i*x1) + exp(-i*x1))", "--a=i*x1^2*x2*d2 + i*x2", "--b=1/3*d1^2*x2", "--kind", "qpb"],
    ["bracket", "--s", "3/4*x1^3*x2^3 - 2*x2^2", "--a=5/4*x1^2*x2^2*x1^26*d2 - 2", "--b=(1/2 + i)*x2^2*d2", "--kind", "geo", "--json"],
    ["bracket", "--s", "1/2*x1^2 - x1", "--a=(1/2 + i)*d1*x1^2*x1^34 + i", "--b=3/2*d1", "--kind", "qpb", "--json"],
    ["classical", "--s", "x3^2 - 1/2*x1^2*x3*x4^2", "--f", "1 - x1^3*x3*x4", "--g", "3/4*x1^3*x3^3*x4 - 2*x2", "--json"],
    ["classical", "--s", "x1^2*x2^2 + 3/4*x1^2*x2^3", "--f", "x2*x2^31 + x1^3*x2", "--g", "3/4*x1^2*x2 + 1/2*x1^3", "--json"],
    ["classical", "--s", "2*x1^3*x3^2 + 3/4*x1*x2^2*x3*x4^3", "--f", "1/2*x2 - 1/2*x1^3*x2^3*x3^3*x4^2", "--g", "3/4*x1^2*x3^2*x4 + x2*x3^3"],
    ["classical", "--s", "3/4*x2^3 - 1", "--f", "2*x1*x2*x2^28 + 3/4*x1^3", "--g", "2*x1^3 + 1/2*x2"],
]

HIGH_DERIVATIVES = [
    ["bracket", "--s", "x1^2", "--a", "d1^30", "--b", "x1^3*exp(i*x1)", "--kind", "qcpb"],
    ["bracket", "--s", "x2", "--a", "d1^5*d2^3", "--b", "x1^2*exp(i*x2) + x2", "--kind", "qcpb", "--json"],
]

VERIFY = [
    ["verify", "--seed", "7", "--trials", "2"],
    ["verify", "--seed", "7", "--trials", "2", "--json"],
]

REQUESTS = README + SEEDED + HIGH_DERIVATIVES + VERIFY


def transcript() -> str:
    """Every request's command line, exit code, stdout and stderr."""
    blocks = []
    for argv in REQUESTS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        blocks.append(f"$ geobracket {shlex.join(argv)}\nexit {code}\n{out.getvalue()}{err.getvalue()}")
    return "\n".join(blocks)


def test_cli_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
