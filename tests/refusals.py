"""Refusal texts of the grid oracle, pinned once for every test file."""


def non_periodic_message(name):
    """The one refusal of data that is not 2*pi-periodic under ``spectral``."""
    return f"spectral scheme requires 2*pi-periodic data, got {name}"


def non_finite_message(name):
    """The one refusal of a function whose grid samples leave double precision."""
    return f"the samples of {name} are not finite in double precision"
