"""A fault for the verifier's tests: every comparison sees its right side
with 1 added to the constant of row 0, so each check can be shown to fail.

The fault replaces ``verifier._compare``, the one comparison of every
form, so a faulty run takes the path a clean run takes: the basis proofs
of the linear identities first, then the grid.
"""

from contextlib import contextmanager

import pytest

from polygenocchi import verifier
from polygenocchi.series import Poly, Series


def perturb(rhs):
    """rhs with 1 added to the constant of row 0: to G_0 of a kernel G.
    Rows come back as a new list, so no shared value changes."""
    if isinstance(rhs, Series):
        return rhs + Series.one(rhs.order)
    first, *rest = rhs
    one = Series.one(first.order) if isinstance(first, Series) else Poly((1,))
    return [first + one, *rest]


@contextmanager
def injected(fault: bool = True):
    """Within the block, every comparison sees a perturbed right side;
    ``fault=False`` leaves the comparison as it is."""
    with pytest.MonkeyPatch.context() as m:
        if fault:
            real = verifier._compare
            m.setattr(verifier, "_compare", lambda lhs, rhs: real(lhs, perturb(rhs)))
        yield
