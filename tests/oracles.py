"""Reference implementations that several test modules compare the package
against; test modules import this file by name, since pytest puts the
tests directory on the import path."""

from __future__ import annotations

from triwedge.exterior_core import AlternatingTensor
from triwedge.form_analysis import SkewLinearMatrix


def entry_form(M: SkewLinearMatrix, i: int, j: int) -> AlternatingTensor:
    """The (i, j) entry of a skew matrix of linear forms as a 1-form, read
    directly from its pair table."""
    terms = dict(M.pairs).get((min(i, j), max(i, j)), ())
    form = AlternatingTensor.make(M.ctx, 1, "form", [((k,), c) for k, c in terms])
    return form if i < j else form.neg()
