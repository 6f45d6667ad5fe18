"""Unit tests over the identity catalogue in :mod:`geobracket.verify`."""

import pytest

from geobracket.randomized import trial_rng


def catalogue_test(seed, label, draws, *checks):
    """A test asserting each ``verify`` check on ``trial_rng(seed, label, i)``
    for ``i < draws`` at ``max_dim = 2``; every check makes its own draw."""

    @pytest.mark.parametrize("index", range(draws))
    def test(index):
        for check in checks:
            assert check(trial_rng(seed, label, index), 2)

    return test
