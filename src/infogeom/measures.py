"""Weighted point-set measures on R^m.

Every measure in the package is a finite support set with weights: signed
measures (:class:`SignedFiniteMeasure`) and their non-negative subclass for
probability and general measures (:class:`FiniteMeasure`).
Continuous inputs enter the system already discretized by the family
constructors, so every integral below is a finite sum and push-forward /
Radon-Nikodym manipulations are exact up to float rounding.

Support canonicalization: coordinates are compared after rounding to 12
significant decimal digits, coinciding points are merged (weights summed)
and rows are sorted lexicographically by the rounded key. Lattice-valued
supports (Bernoulli, binomial, ...) therefore merge exactly under sums and
affine maps, while quadrature nodes keep their full stored precision. An
integer of absolute value below 10**12 is its own 12-digit key, so points
whose coordinates are all such integers (``integer_keyed``) may instead be
grouped by an integer cell index that numbers them in key order: the cells
split them into the same groups, in the same order, as the keys, and both
sorts are stable, so the plan is the same bit for bit. ``MergePlan.of_sums``
plans the pairwise sums of two point arrays this way when it can: the cell
of a sum is the sum of its factors' cells. Cells of a grid of at most 65,535
are uint16; when each factor's cells rise strictly, as those of a canonical
support do, the pairs of one row fall in distinct cells, so
``_counted_groups`` places the rows one at a time, in input order, each pair
at its cell's next free slot: a counting sort with no key per pair and no
sort. A cell then lists its pairs by row, as a stable sort does, and a pair
is its row cell and its group's cell: the plan keeps a uint16 row cell per
pair in ``order``, not an int32 input position, and neither an array of the
pairs' cells nor an int64 index per pair is made. Other uint16 cells take
``argsort`` as wider ones do. (N, 1) points that never decrease are not
sorted at all: quantization is monotone, so their keys never decrease
either, and a stable sort of them is the identity. ``MergePlan.build`` then
keeps no ``order``, and a merge sums the weights where they lie. Every 1/n
rescale of a canonical 1-D support and every push-forward of one by an
increasing affine map is such a list.

Canonicalization works in blocks of ``BLOCK`` points: ``quantize``, the key
comparisons that find where groups start, the quantized keys of pairwise
sums (one block of rows of the first factor at a time) and the merges of a
plan (whole groups gathered, or sliced where they lie, and summed together;
the weight products of a sum step formed per block, on a plan of row cells
from each factor's weights laid over its cells, gathered by row cell and by
column cell, the group's cell less the row cell: the same products in the
same order). Only elementwise work, ``reduceat`` over whole groups and
``max`` are split, because each gives the same bits in blocks. ``np.sum``
and float ``cumsum`` keep their whole operand arrays, because their rounding
depends on the whole array; a matmul keeps its shape, because a different
shape can round differently. So the (pairs, m) array of the sums and a
weight per pair are never made: of the arrays as long as the list of pairs,
the plan's ``order`` stays, and only the sort keys of the ``argsort`` and
``lexsort`` routes exist for a while. ``quantize`` and the merges keep a
block's temporaries in buffers made once per call and written with ``out=``:
that moves where a value is written, not how it is computed, and the blocks
stay the same runs of input in the same order, so no bit moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import AbsoluteContinuityError

SIGNIFICANT_DIGITS = 12
TANGENT_MASS_TOL = 1e-10
BLOCK = 1 << 16  # points per block of canonicalization's elementwise work, comparisons and merges
# 10**(11 - m) for each clipped decimal magnitude m = -250..250, at m + 250: the scales ``quantize`` rounds by
_SCALES = np.power(10.0, (SIGNIFICANT_DIGITS - 1) - np.arange(-250.0, 251.0))


def quantize(values) -> np.ndarray:
    """Round coordinates to 12 significant decimal digits.

    The rounded values are the canonical keys for support-point equality.
    Rounding is monotone, so canonical sorting agrees with raw ordering.
    """
    x = np.asarray(values, dtype=float)
    out = np.empty(x.shape)
    _quantize_into(x.reshape(-1), out.reshape(-1))
    return out


def _quantize_into(x: np.ndarray, out: np.ndarray) -> None:
    """``quantize`` of the flat array x, written to the flat array out one block at a time.

    A point's decimal magnitude, clipped to +-250, picks its scale from
    ``_SCALES``. 0 has magnitude -inf, clipped to -250, and 0 times its scale
    rounds back to 0; a NaN's index is any, and it stays NaN at every scale.
    """
    width = min(BLOCK, x.shape[0])
    magnitude, index = np.empty(width), np.empty(width, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):  # log10 of 0, and the cast of a NaN magnitude
        for start in range(0, x.shape[0], BLOCK):
            xb, ob = x[start:start + BLOCK], out[start:start + BLOCK]
            mag, at = magnitude[:xb.shape[0]], index[:xb.shape[0]]
            np.abs(xb, out=mag)
            np.log10(mag, out=mag)
            np.floor(mag, out=mag)
            np.clip(mag, -250.0, 250.0, out=mag)
            np.copyto(at, mag, casting="unsafe")
            at += 250
            scale = _SCALES.take(at, out=mag, mode="clip")
            np.multiply(xb, scale, out=ob)
            np.round(ob, out=ob)
            ob /= scale
            ob += 0.0  # fold -0.0 into +0.0


def integer_keyed(points) -> bool:
    """True when every coordinate is an integer of absolute value below 10**12, and so its own key."""
    x = np.asarray(points, dtype=float)
    return bool(np.all(np.abs(x) < 10.0**SIGNIFICANT_DIGITS) and np.all(x == np.trunc(x)))


def _index_type(count: int):
    """int32 for positions among fewer than 2**31 points, else intp."""
    return np.int32 if count < 2**31 else np.intp


def _nondecreasing(x: np.ndarray) -> bool:
    """True when the (N,) values never decrease, compared one block at a time up to the first decrease."""
    for start in range(1, x.shape[0], BLOCK):
        k = x[start - 1:start + BLOCK]
        if not np.all(k[1:] >= k[:-1]):
            return False
    return True


def _fresh(keys: np.ndarray, order: Optional[np.ndarray]) -> np.ndarray:
    """True where a new (N,) or (N, m) key starts in ``order`` (None: the keys' own), compared a block at a time."""
    fresh = np.ones(keys.shape[0], dtype=bool)
    for start in range(1, keys.shape[0], BLOCK):
        k = keys[start - 1:start + BLOCK] if order is None else keys[order[start - 1:start + BLOCK]]
        change = k[1:] != k[:-1]
        fresh[start:start + BLOCK] = change if change.ndim == 1 else np.any(change, axis=1)
    return fresh


def _sum_cells(a: np.ndarray, b: np.ndarray):
    """Cells of the points of a and of b in the row-major grid of the box of their pairwise sums.

    The cell of a sum a_i + b_j is the cell of a_i plus the cell of b_j, in
    the key order of the sums, so the two short vectors number every pair.
    They take the type of the sums' cells: uint16 up to 65,535 cells, which
    ``_counted_groups`` places row by row when each vector rises strictly,
    uint32 up to 2**32 and int64 beyond. None, for the quantized route, unless every point and every sum
    is ``integer_keyed`` and the grid fits int64.
    """
    lo_a, lo_b = a.min(axis=0), b.min(axis=0)
    lo, hi = lo_a + lo_b, a.max(axis=0) + b.max(axis=0)
    if not (integer_keyed(a) and integer_keyed(b) and integer_keyed([lo, hi])):
        return None
    extent = [int(e) + 1 for e in hi - lo]
    cells = math.prod(extent)
    if cells >= 2**63:
        return None
    strides = np.array([math.prod(extent[d + 1:]) for d in range(len(extent))], dtype=np.int64)
    dtype = np.uint16 if cells <= 65_535 else np.uint32 if cells <= 2**32 else np.int64
    ca = ((a - lo_a).astype(np.int64) @ strides).astype(dtype)
    cb = ((b - lo_b).astype(np.int64) @ strides).astype(dtype)
    return ca, cb


def _quantized_sum_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quantized keys of the pairwise sums a_i + b_j, flattened over (i, j), made one block of a-rows at a time.

    Raises the ``ValueError`` of a non-finite point if a sum is not finite.
    """
    nb, m = b.shape
    keys = np.empty((a.shape[0] * nb, m))
    rows = max(1, BLOCK // nb)
    for i in range(0, a.shape[0], rows):
        sums = (a[i:i + rows, None, :] + b[None, :, :]).reshape(-1)
        if not np.all(np.isfinite(sums)):
            raise ValueError("points and weights must be finite")
        _quantize_into(sums, keys[i * nb:(i + rows) * nb].reshape(-1))
    return keys


def _groups(make_keys):
    """Stable order of the keys ``make_keys()`` gives, and where each run of equal keys starts in it.

    (N,) integer cells take a stable ``argsort`` and (N, m) float keys a
    ``lexsort`` by column; the keys are freed before the order is narrowed to
    int32 (below 2**31 keys), and the int64 order right after.
    """
    keys = make_keys()
    index = _index_type(keys.shape[0])
    order = np.argsort(keys, kind="stable") if keys.ndim == 1 else np.lexsort(keys.T[::-1])
    fresh = _fresh(keys, order)
    del keys
    order = order.astype(index)
    return _frozen(order), _frozen(np.flatnonzero(fresh).astype(index))


def _counted_groups(ca: np.ndarray, cb: np.ndarray):
    """Row cells, group starts and (ca, cb, group cells) of the pairwise sums of strictly increasing uint16 cells.

    The pairs are flattened over (i, j) and sorted stably by their cells ca_i +
    cb_j, by counting a row at a time: cb rises strictly, so a row's pairs fall
    in distinct cells, laid out as cb from the row's cell ca_i. Each row adds
    one at its cells, first to count them, then, in input order, to move their
    next free slots past the row cell ca_i it writes there. So a cell lists its
    pairs by row, as a stable ``argsort`` does, and no key or sort is made.
    Beside the uint16 order a step holds per-cell counts and free slots.
    """
    total = ca.shape[0] * cb.shape[0]
    span = int(cb[-1]) + 1
    column = cb.astype(np.intp)
    row = np.zeros(span, dtype=np.intp)
    row[column] = 1  # a row's pairs, laid over the cells from its row cell
    counts = np.zeros(int(ca[-1]) + span, dtype=np.intp)
    for c in ca.tolist():
        counts[c:c + span] += row
    free = np.cumsum(counts) - counts  # each cell's next free slot in the order
    occupied = np.flatnonzero(counts)
    starts = free[occupied].astype(_index_type(total))
    order = np.empty(total, dtype=np.uint16)
    for c in ca.tolist():  # in input order, so a cell lists its pairs by row
        slots = free[c:c + span]
        order[slots[column]] = c
        slots += row
    return _frozen(order), _frozen(starts), (_frozen(ca), _frozen(cb), _frozen(occupied.astype(np.uint16)))


def _dense(cells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weights at their cells in a float array over the cells up to the last, zero elsewhere."""
    dense = np.zeros(int(cells[-1]) + 1)
    dense[cells] = weights
    return dense


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class MergePlan:
    """How a list of points merges into a canonical support, kept to merge new weights.

    ``MergePlan.build(points)`` sorts (N, m) points once by their quantized
    keys (``of_sums`` gives the plan of pairwise sums, from integer cells when it can):
    ``points`` is the canonical support (the first point of each key group,
    in key order), ``order`` the sort of the input and ``starts`` where each
    group begins in it (int32 below 2**31 input points). ``inputs`` is the
    shape of the weights the plan merges: (N,), or (len(a), len(b)) for the
    pairwise sums of a and b. ``merge(weights)`` sums (N,) weights given in
    input order over those groups (a plan of sums merges only the products
    p_i q_j, by ``merge_products``): the float work of a fresh
    canonicalization, in the same order, so a measure built from a plan is
    bitwise identical to one built from the points. (N, 1) points that never
    decrease are in key order already: their plan keeps ``order`` None and
    merges the weights where they lie. A plan with ``starts`` None too keeps
    points that are canonical already; ``support`` of a measure gives one. Pass a plan as the
    ``points`` of a measure to build it without sorting. A plan of sums that
    no measure is built on may keep ``points`` None: it still merges, and
    ``sum_points`` makes the points again from the two factors'. A plan of
    sums placed row by row (``of_sums``) keeps in ``order`` the uint16 row
    cell ca_i of each pair in place of its position i * nb + j, and in
    ``cells`` the factors' strictly increasing cells ca and cb and the cell
    of each group; the pair's column cell cb_j is its group's cell less
    ca_i, and a cell's place among its factor's is the point's. Every other
    plan keeps ``cells`` None.
    """

    points: np.ndarray
    order: Optional[np.ndarray]
    starts: Optional[np.ndarray]
    inputs: tuple
    cells: Optional[tuple] = None

    @classmethod
    def build(cls, points) -> "MergePlan":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must be a (N, m) array")
        if pts.shape[0] == 0:
            raise ValueError("a measure needs at least one support point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points and weights must be finite")
        if pts.shape[1] == 1 and _nondecreasing(pts[:, 0]):
            starts = _frozen(np.flatnonzero(_fresh(quantize(pts[:, 0]), None)).astype(_index_type(pts.shape[0])))
            return cls(_frozen(pts[starts]), None, starts, pts.shape[:1])
        order, starts = _groups(lambda: quantize(pts))
        return cls(_frozen(pts[order[starts]]), order, starts, pts.shape[:1])

    @classmethod
    def of_sums(cls, a: np.ndarray, b: np.ndarray) -> "MergePlan":
        """Plan of the pairwise sums a_i + b_j of two (N, m) point arrays, flattened over (i, j).

        Equal to ``build`` of the sums, which are never made: the keys are
        the integer cells of ``_sum_cells`` when it gives them, else the
        quantized sums of ``_quantized_sum_keys``, and only the canonical sums
        are made. A plan placed row by row keeps row cells in ``order``,
        which its ``cells`` turn into ``build``'s positions.
        """
        cells, grid = _sum_cells(a, b), None
        if cells is not None and cells[0].dtype == np.uint16 and all(np.all(c[1:] > c[:-1]) for c in cells):
            order, starts, grid = _counted_groups(*cells)
        else:  # the wider cells of every pair at once, or the quantized keys
            order, starts = _groups(lambda: np.add.outer(*cells).ravel() if cells else _quantized_sum_keys(a, b))
        plan = cls(None, order, starts, (a.shape[0], b.shape[0]), grid)
        return replace(plan, points=plan.sum_points(a, b))

    def sum_points(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The canonical points of the plan ``of_sums(a, b)``: the sum at each group's first pair, frozen.

        A plan that dropped its ``points`` makes them again from a and b with this one expression, bit for bit.
        """
        first = self.order[self.starts]
        if self.cells is None:
            return _frozen(a[first // b.shape[0]] + b[first % b.shape[0]])
        ca, cb, occupied = self.cells  # a factor's cells rise strictly, so a cell's place among them is its point's
        return _frozen(a[np.searchsorted(ca, first)] + b[np.searchsorted(cb, occupied - first)])

    @property
    def shape(self) -> tuple:
        """Shape of the points the plan merges: (N, m), or (N,) for a plan that keeps no ``points``."""
        total = math.prod(self.inputs)
        return (total,) if self.points is None else (total, self.points.shape[1])

    def merge(self, weights: np.ndarray) -> np.ndarray:
        """Weights of ``points``: the (N,) input weights summed over each group.

        With ``starts`` None they are the weights themselves: a read-only
        float64 array that owns its data is returned as it is, any other is
        copied and frozen. Weights of any other shape than the plan's inputs
        raise ValueError, as ``_reduce`` raises: so do a plan of sums' flat
        weights, whose merge is ``merge_products``.
        """
        w = np.asarray(weights, dtype=float)
        if self.starts is None:
            self._check_lengths(w.shape[:1])
            return w if w.flags.owndata and not w.flags.writeable else _frozen(w.copy())
        return self._reduce(w)

    def merge_products(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``merge`` of the products p_i q_j, flattened over (i, j), for the plan ``of_sums`` of their points.

        The same products as ``np.outer(p, q)``, formed a block at a time.
        """
        return self._reduce(p, q)

    def _reduce(self, p: np.ndarray, q: Optional[np.ndarray] = None) -> np.ndarray:
        """Sum of each group of the input values: p, or with q the products p_i q_j flattened over (i, j).

        Whole groups are summed (``reduceat``) a block of about ``BLOCK``
        input positions at a time, so each group's sum is the one over all
        the input at once. With ``order`` None a block is a slice of p;
        otherwise its values are gathered. A plan of row cells gathers p_i and
        q_j by row cell and column cell from the factors' weights laid over
        their cells, once per call. A block's positions, rows and gathered
        values go to three buffers made once per call, as long as its longest
        block (longer than ``BLOCK`` when a group is), and a buffer whose
        values are used takes the next ones. The positions are intp, which
        numpy would otherwise make of the int32 or uint16 order at every
        gather. Values of any other shape than the plan's inputs raise
        ValueError (flat weights of a plan of sums too), so every gathered
        index is in range.
        """
        self._check_lengths(p.shape[:1] if q is None else (p.shape[0], q.shape[0]))
        groups, total = self.starts.shape[0], math.prod(self.inputs)
        # the first group to start in each run of BLOCK input positions (in starts' own type: no cast copy)
        cuts = np.searchsorted(self.starts, np.arange(0, total, BLOCK, dtype=self.starts.dtype)).tolist()
        # each block of whole groups, lo to hi, and the input positions it spans, first to last
        spans = [(lo, hi, int(self.starts[lo]), int(self.starts[hi]) if hi < groups else total)
                 for lo, hi in zip(cuts, cuts[1:] + [groups]) if lo < hi]
        width = max(last - first for _, _, first, last in spans)
        at_all = np.empty(width, dtype=np.intp)
        if self.order is not None:
            row_all, values_all = np.empty(width, dtype=np.intp), np.empty(width)
        if self.cells is not None:
            ca, cb, occupied = self.cells
            sizes = np.diff(self.starts, append=total)
            p, q = _dense(ca, p), _dense(cb, q)  # each factor's weights at its cells, zero between them
        out = np.empty(groups)
        for lo, hi, first, last in spans:
            if self.order is None:
                values = p[first:last]
            else:
                at, row, values = at_all[:last - first], row_all[:last - first], values_all[:last - first]
                if self.cells is not None:  # the row cells, and the column cells: their group's cell less them
                    np.copyto(row, self.order[first:last])
                    np.subtract(np.repeat(occupied[lo:hi], sizes[lo:hi]), row, out=at)
                else:
                    np.copyto(at, self.order[first:last])
                if q is None:
                    np.take(p, at, out=values, mode="clip")  # in range: mode "raise" would write to a copy of out
                else:
                    if self.cells is None:  # the row i and the column j of each input position i * nb + j
                        np.floor_divide(at, q.shape[0], out=row)
                    np.take(p, row, out=values, mode="clip")
                    if self.cells is None:
                        row *= q.shape[0]
                        at -= row  # the column: not at % q.shape[0], a slower integer division
                    other = row.view(np.float64)  # the rows are used, so their buffer takes q's weights
                    np.take(q, at, out=other, mode="clip")
                    values *= other
            offsets = at_all[:hi - lo]  # the positions, if any, are used too
            np.subtract(self.starts[lo:hi], first, out=offsets)
            np.add.reduceat(values, offsets, out=out[lo:hi])
        return _frozen(out)

    def _check_lengths(self, lengths: tuple) -> None:
        """ValueError unless the weights' lengths are the plan's inputs: a sum plan merges only products."""
        if lengths != self.inputs:
            raise ValueError("weights must be given at each input point of the plan")


def _canonical_support(points, weights):
    """Merge duplicate (quantized) points and sort lexicographically.

    Returns (points, weights) with the representative coordinates taken from
    the first occurrence inside each merge group, so exact lattice values are
    preserved bit for bit. ``points`` may be a :class:`MergePlan`, which
    merges without sorting.
    """
    plan = points if isinstance(points, MergePlan) else MergePlan.build(points)
    w = np.asarray(weights, dtype=float)
    w = w if w.ndim == 1 else w.reshape(-1)  # a 1-D array as it is, so that merge can keep a frozen one
    if plan.shape[0] != w.shape[0]:
        raise ValueError("points and weights must have the same length")
    if not np.all(np.isfinite(w)):
        raise ValueError("points and weights must be finite")
    return plan.points, plan.merge(w)


@dataclass(frozen=True, eq=False)
class SignedFiniteMeasure:
    """Signed measure with finite support on R^m (weights of any sign).

    ``points`` is (N, m) or a :class:`MergePlan`, ``weights`` is (N,). The
    support is canonicalized on construction (see module docstring).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts, w = _canonical_support(self.points, self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def support(self) -> MergePlan:
        """Plan of this (canonical) support: a measure built on it shares ``points`` and skips the sort."""
        return MergePlan(self.points, None, None, self.points.shape[:1])


@dataclass(frozen=True, eq=False)
class FiniteMeasure(SignedFiniteMeasure):
    """Non-negative measure with finite support on R^m: a signed measure with all weights >= 0."""

    # canonicalizes itself rather than through super(): perfbench/tracer.py times
    # each class's __post_init__ as one canonicalization, which must not nest
    def __post_init__(self):
        if np.any(np.asarray(self.weights, dtype=float) < 0.0):
            raise ValueError("FiniteMeasure weights must be non-negative")
        pts, w = _canonical_support(self.points, self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


def checked_weights(weights: np.ndarray) -> np.ndarray:
    """(N,) weights as they are, once they pass a FiniteMeasure's checks; ValueError, as it raises, if they fail."""
    if np.any(weights < 0.0):
        raise ValueError("FiniteMeasure weights must be non-negative")
    if not np.all(np.isfinite(weights)):
        raise ValueError("points and weights must be finite")
    return weights


# Cephes ndtr/erf/erfc (the routine behind scipy.special.ndtr), coefficient for
# coefficient. Each tuple is evaluated by Horner's rule from its first entry;
# a leading 1.0 stands for cephes' p1evl (implicit leading coefficient).
# erf(x) = x T(x^2) / U(x^2) for |x| < 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, with R / S in place of P / Q beyond.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc underflows to 0 once x^2 > MAXLOG
_NDTR_BLOCK = 1 << 14


def _horner(x: np.ndarray, coef) -> np.ndarray:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr_block(a: np.ndarray) -> np.ndarray:
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    # Where erfc is not evaluated: 0 below the underflow point, NaN at NaN, and
    # 1 for x > 6, where 0.5 erfc(x) < 2**-54 so that 1 - 0.5 erfc(x) rounds to 1.
    y = np.heaviside(x, 0.5)
    near = z < 1.0
    xn = x[near]
    y[near] = 0.5 + 0.5 * (xn * _horner(xn * xn, _ERF_T) / _horner(xn * xn, _ERF_U))
    with np.errstate(over="ignore"):  # z * z = inf is past the underflow point, as it should be
        tail = ~near & (z * z <= _MAXLOG) & (x <= 6.0)
    zt = z[tail]
    # libm exp, as cephes calls it; numpy's SIMD exp rounds differently on some inputs
    e = np.fromiter(map(math.exp, (-(zt * zt)).tolist()), dtype=float, count=zt.size)
    p = np.empty_like(zt)
    q = np.empty_like(zt)
    mid = zt < 8.0
    for sel, num, den in ((mid, _ERFC_P, _ERFC_Q), (~mid, _ERFC_R, _ERFC_S)):
        p[sel] = _horner(zt[sel], num)
        q[sel] = _horner(zt[sel], den)
    half_erfc = 0.5 * (e * p / q)
    y[tail] = np.where(x[tail] > 0.0, 1.0 - half_erfc, half_erfc)
    return y


def ndtr(a):
    """Standard normal CDF, bit for bit equal to ``scipy.special.ndtr`` on float64.

    Evaluated in blocks of ``_NDTR_BLOCK`` points so temporaries stay small. A
    scalar or 0-d input gives a numpy scalar, as a ufunc would.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _NDTR_BLOCK):
        out[start:start + _NDTR_BLOCK] = _ndtr_block(flat[start:start + _NDTR_BLOCK])
    return out.reshape(a.shape)[()]


@dataclass(frozen=True, eq=False)
class TangentPair:
    """Statistical tangent vector: base distribution plus a signed direction.

    ``direction`` must be given on the support of ``base`` (the same points;
    build it on ``base.support``, with zero weights where it has no mass) and
    have total mass zero (within ``TANGENT_MASS_TOL``); its density with
    respect to ``base`` is the directional score.
    """

    base: FiniteMeasure
    direction: SignedFiniteMeasure

    def __post_init__(self):
        s = float(np.sum(self.direction.weights))
        if abs(s) > TANGENT_MASS_TOL:
            raise ValueError(f"direction weights must sum to 0, got {s!r}")
        if not np.array_equal(self.direction.points, self.base.points):
            raise ValueError("direction must be given on the base support")


def push_forward(measure, point_map):
    """Image measure under a point map phi: R^m -> R^k.

    ``point_map`` is called once, on the (N, m) array of support points, and
    returns the (N, k) images (or (N,) for k = 1). Images that coincide after
    quantization have their weights summed, so total mass is preserved.
    Returns the same signedness class as ``measure``.
    """
    return type(measure)(point_map(measure.points), measure.weights)


def moments(measure):
    """Mean vector and covariance matrix of a probability measure.

    ``mean = sum w_i x_i`` and ``cov = sum w_i (x_i - mean)(x_i - mean)^T``;
    the weights are used as given, so the probability normalization is the
    caller's responsibility.
    """
    mean, c = centered(measure.weights, measure.points)
    return mean, weighted_cov(measure.weights, c)


def centered(weights, points):
    """Weighted mean ``weights @ points`` of the rows, and the rows minus it."""
    mean = weights @ points
    return mean, points - mean


def weighted_cov(weights, c) -> np.ndarray:
    """Symmetrized ``sum_i w_i c_i c_i^T`` of centered rows ``c``."""
    cov = (weights[:, None] * c).T @ c
    return 0.5 * (cov + cov.T)


def radon_nikodym(direction, base: FiniteMeasure) -> np.ndarray:
    """Density dA/dP of a signed measure A with respect to P, per point of P.

    A must be given on the support of P (the same points, zero weights where
    A has no mass). Raises :class:`AbsoluteContinuityError` if it is given on
    any other support, or has mass at a point where P has weight zero.
    """
    if not np.array_equal(direction.points, base.points):
        raise AbsoluteContinuityError("signed measure is not given on the base support")
    num = np.asarray(direction.weights, dtype=float)
    positive = base.weights > 0.0
    if np.any(num[~positive] != 0.0):
        raise AbsoluteContinuityError("signed measure has mass where the base weight is zero")
    return np.divide(num, base.weights, out=np.zeros(base.size), where=positive)


def almost_equal(m1, m2, tol: float = 1e-12) -> bool:
    """True when two measures share canonical support (key for key, in order) and weights within tol."""
    if not np.array_equal(quantize(m1.points), quantize(m2.points)):
        return False
    return bool(np.max(np.abs(m1.weights - m2.weights)) <= tol)
