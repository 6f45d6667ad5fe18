"""Out-of-program tracer: wraps public ``geobracket`` functions from outside.

``Tracer.install()`` replaces each traced function by a timing wrapper in
every ``geobracket`` module namespace that holds it (so ``compose`` is caught
in ``operators`` itself, where ``commutator`` and ``DiffOp.__mul__`` look it
up, as well as in ``brackets``, ``quantum``, ``parsing`` and ``verify``) and
on the classes that define traced methods.  ``uninstall()`` restores the
originals, so untraced and traced passes run in the same process.

Every wrapper keeps a frame on one stack.  On exit it charges its duration
to the enclosing frame, so self time is duration minus the time covered by
traced children.  Calls of the leaf kernels (``scalars``, ``functions``) run
by the million; they are aggregated into counters and into the self time of
their parent frame.  Every other call is kept as a span ``(name, start, end,
parent, op)`` in memory and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import time
from collections import defaultdict

from geobracket import brackets, classical, cli, functions, grid, operators
from geobracket import parsing, printing, quantum, randomized, scalars, verify

_clock = time.perf_counter

# Traced module-level functions.
_FUNCTIONS = (
    (operators, "compose"),
    (brackets, "qcpb"),
    (brackets, "geomutator"),
    (brackets, "jacobi_residuals"),
    (brackets, "sandwich"),
    (brackets, "s_transform"),
    (brackets, "hermitian_split_qcpb"),
    (quantum, "gdynamics"),
    (quantum, "gen_heisenberg_rhs"),
    (quantum, "covariant_rhs"),
    (quantum, "geomentum"),
    (quantum, "geometric_ccr_suite"),
    (quantum, "geomutator_ccr_part"),
    (quantum, "harmonic_oscillator"),
    (classical, "gpb"),
    (classical, "gspb"),
    (classical, "geobracket_part"),
    (classical, "dynamics_rhs"),
    (randomized, "random_structure_fn"),
    (randomized, "random_diff_op"),
    (randomized, "random_first_order_op"),
    (randomized, "random_polynomial"),
    (randomized, "random_coef_fn"),
    (randomized, "random_scalar"),
    (randomized, "random_antisymmetric_matrix"),
    (parsing, "parse"),
    (parsing, "lower"),
    (printing, "format_diff_op"),
    (printing, "format_coef_fn"),
    (cli, "main"),
    (grid, "derivative_matrix"),
    (grid, "discretize"),
    (grid, "matrix_bracket"),
    (grid, "compare"),
    (grid, "evolve"),
)

# Traced methods: ``(class, attribute, leaf kind)``.  Leaf kinds are
# aggregated into counters instead of spans.  Aliases such as
# ``__radd__ = __add__`` are found and wrapped too.
_METHODS = (
    (scalars.ComplexRational, "__add__", "scalar_add"),
    (scalars.ComplexRational, "__sub__", "scalar_add"),
    (scalars.ComplexRational, "__rsub__", "scalar_add"),
    (scalars.ComplexRational, "__mul__", "scalar_mul"),
    (scalars.ComplexRational, "__truediv__", "scalar_mul"),
    (scalars.ComplexRational, "__neg__", "scalar_other"),
    (scalars.ComplexRational, "conjugate", "scalar_other"),
    (functions.CoefFn, "__mul__", "fn_mul"),
    (functions.CoefFn, "diff", "fn_diff"),
    (operators.DiffOp, "__call__", None),
    (quantum.CCRTable, "expected_momentum_momentum", None),
)


def _den_bits(op) -> int:
    bits = 0
    for coeff in op.terms.values():
        for value in coeff.terms.values():
            bits = max(bits, value.re.denominator.bit_length(), value.im.denominator.bit_length())
    return bits


def _steps_done(exc) -> int:
    match = re.search(r"at step (\d+)", str(exc))
    return int(match.group(1)) if match else 0


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "compose_at_entry", "span")

    def __init__(self, name, layer, compose_at_entry, span):
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.compose_at_entry = compose_at_entry
        self.span = span


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self._originals = []
        self.reset()

    def reset(self):
        self.stack = []
        self.spans = []
        self.op_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # Keyed by function name and by layer: nesting depth, inclusive time
        # of outermost calls, and compose calls made inside outermost calls.
        self.depth = defaultdict(int)
        self.outer_s = defaultdict(float)
        self.compose_under = defaultdict(int)
        self.compose_total = 0
        self.terms_out = defaultdict(int)
        self.peak_terms = 0
        self.peak_den_bits = 0
        self.chars_out = 0
        self.rk4_steps = 0
        self._leaf_child = {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, kind=None):
        tracer = self
        layer = name.split(".")[0]

        if kind is not None:
            def leaf_wrapper(*args, **kwargs):
                stack = tracer.stack
                depth = len(stack)
                stack.append(None)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    tracer._leaf_exit(kind, elapsed, depth)
                if kind == "fn_mul" and type(result) is functions.CoefFn:
                    tracer.terms_out["fn_mul"] += len(result.terms)
                return result

            leaf_wrapper.__wrapped__ = fn
            return leaf_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except grid.EvolutionDiverged as exc:
                tracer._exit(frame)
                if name == "grid.evolve":
                    tracer.rk4_steps += _steps_done(exc)
                raise
            except BaseException:
                tracer._exit(frame)
                raise
            tracer._exit(frame)
            tracer._observe(name, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_exit(self, kind, elapsed, depth):
        self.calls[kind] += 1
        self.self_s[kind] += elapsed - self._leaf_child.pop(depth, 0.0)
        self._charge_parent(elapsed, depth)

    def _charge_parent(self, elapsed, depth):
        if depth:
            parent = self.stack[depth - 1]
            if parent is None:
                self._leaf_child[depth - 1] = self._leaf_child.get(depth - 1, 0.0) + elapsed
            else:
                parent.child += elapsed

    def _enter(self, name, layer):
        if name == "operators.compose":
            self.compose_total += 1
        self.depth[name] += 1
        self.depth[layer] += 1
        frame = _Frame(name, layer, self.compose_total, len(self.spans))
        self.spans.append(None)
        self.stack.append(frame)
        frame.start = _clock()
        return frame

    def _exit(self, frame):
        end = _clock()
        elapsed = end - frame.start
        self.stack.pop()
        name, layer = frame.name, frame.layer
        self.calls[name] += 1
        self.self_s[name] += elapsed - frame.child
        for key in (name, layer):
            self.depth[key] -= 1
            if not self.depth[key]:
                self.outer_s[key] += elapsed
                self.compose_under[key] += self.compose_total - frame.compose_at_entry
        parent_span = next(
            (above.span for above in reversed(self.stack) if above is not None), -1
        )
        self.spans[frame.span] = (name, frame.start, end, parent_span, self.op_id)
        self._charge_parent(elapsed, len(self.stack))

    def _observe(self, name, kwargs, result):
        if name == "operators.compose":
            terms = sum(len(c.terms) for c in result.terms.values())
            self.terms_out["compose"] += terms
            self.peak_terms = max(self.peak_terms, terms)
            self.peak_den_bits = max(self.peak_den_bits, _den_bits(result))
        elif name.startswith("printing.") and not self.depth["printing"]:
            self.chars_out += len(result)
        elif name == "grid.evolve":
            self.rk4_steps += kwargs["steps"]

    def install(self):
        """Wrap every traced callable; idempotent."""
        if self._originals:
            return
        package = importlib.import_module("geobracket")
        namespaces = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, "geobracket.")
            if info.name != "geobracket.__main__"
        ]
        for module, attr in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, _name(module, attr))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._originals.append((namespace, key, value))
                        setattr(namespace, key, wrapper)
        for cls, attr, kind in _METHODS:
            original = cls.__dict__[attr]
            wrapper = self._wrap(original, _name(cls, attr), kind)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    self._originals.append((cls, key, value))
                    setattr(cls, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._originals):
            setattr(owner, key, value)
        self._originals = []

    def traced_call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span named ``name``."""
        frame = self._enter(name, name.split(".")[0])
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- results ---------------------------------------------------------------

    def _layer_self_s(self, layer):
        return sum(self.self_s[name] for name in _LAYER_NAMES[layer])

    def metrics(self):
        """Per-layer metrics of everything traced since the last reset.

        ``*_self_s`` is self time; other ``*_s`` metrics are the inclusive
        time of the outermost calls of that function (or layer).
        """
        calls, self_s, outer, under = self.calls, self.self_s, self.outer_s, self.compose_under
        qcpb_calls = calls["brackets.qcpb"]
        jacobi_calls = calls["brackets.jacobi_residuals"]
        out = {
            "scalars.add_calls": (calls["scalar_add"], "count"),
            "scalars.mul_calls": (calls["scalar_mul"], "count"),
            "scalars.self_s": (
                self_s["scalar_add"] + self_s["scalar_mul"] + self_s["scalar_other"], "s"
            ),
            "functions.mul_calls": (calls["fn_mul"], "count"),
            "functions.mul_self_s": (self_s["fn_mul"], "s"),
            "functions.mul_terms_out": (self.terms_out["fn_mul"], "count"),
            "functions.diff_calls": (calls["fn_diff"], "count"),
            "functions.diff_self_s": (self_s["fn_diff"], "s"),
            "operators.compose_calls": (calls["operators.compose"], "count"),
            "operators.compose_self_s": (self_s["operators.compose"], "s"),
            "operators.compose_terms_out": (self.terms_out["compose"], "count"),
            "operators.peak_terms": (self.peak_terms, "count"),
            "operators.peak_den_bits": (self.peak_den_bits, "bits"),
            "operators.apply_calls": (calls["operators.DiffOp.__call__"], "count"),
            "brackets.qcpb_calls": (qcpb_calls, "count"),
            "brackets.qcpb_s": (outer["brackets.qcpb"], "s"),
            "brackets.geomutator_calls": (calls["brackets.geomutator"], "count"),
            "brackets.jacobi_calls": (jacobi_calls, "count"),
            "brackets.jacobi_s": (outer["brackets.jacobi_residuals"], "s"),
            "brackets.compose_per_qcpb": (
                under["brackets.qcpb"] / qcpb_calls if qcpb_calls else 0.0, "count"
            ),
            "brackets.compose_per_jacobi": (
                under["brackets.jacobi_residuals"] / jacobi_calls if jacobi_calls else 0.0,
                "count",
            ),
            "quantum.self_s": (self._layer_self_s("quantum"), "s"),
            "quantum.compose_calls": (under["quantum"], "count"),
            "classical.self_s": (self._layer_self_s("classical"), "s"),
            "classical.gspb_calls": (calls["classical.gspb"], "count"),
            "randomized.draw_s": (outer["randomized"], "s"),
        }
        for check, _ in verify.ALL_CHECKS:
            name = check_span(check)
            out[f"{name}_s"] = (outer[name], "s")
        out.update(
            {
                "parsing.parse_s": (outer["parsing.parse"], "s"),
                "parsing.lower_s": (outer["parsing.lower"], "s"),
                "parsing.lower_compose_calls": (under["parsing.lower"], "count"),
                "printing.format_s": (outer["printing"], "s"),
                "printing.chars_out": (self.chars_out, "count"),
                "cli.self_s": (self_s["cli.main"], "s"),
                "grid.derivative_matrix_calls": (calls["grid.derivative_matrix"], "count"),
                "grid.derivative_matrix_s": (outer["grid.derivative_matrix"], "s"),
                "grid.discretize_s": (outer["grid.discretize"], "s"),
                "grid.matrix_bracket_s": (outer["grid.matrix_bracket"], "s"),
                "grid.compare_s": (outer["grid.compare"], "s"),
                "grid.evolve_s": (outer["grid.evolve"], "s"),
                "grid.rk4_steps": (self.rk4_steps, "count"),
            }
        )
        return out

    def write_spans(self, path):
        """Write the spans as CSV: index, name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("index,name,start_s,end_s,parent,op\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, op = span
                    stream.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _name(owner, attr) -> str:
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    layer = module.split(".")[-1]
    return f"{layer}.{owner.__name__}.{attr}" if isinstance(owner, type) else f"{layer}.{attr}"


def check_span(check_name: str) -> str:
    """Span name of one identity check: ``"s-transform (plain)"`` ->
    ``"verify.check.s_transform_plain"``."""
    return "verify.check." + re.sub(r"[^a-z0-9]+", "_", check_name.lower()).strip("_")


_LAYER_NAMES = defaultdict(list)
for _owner, _attr, *_ in _FUNCTIONS + _METHODS:
    _LAYER_NAMES[_name(_owner, _attr).split(".")[0]].append(_name(_owner, _attr))
