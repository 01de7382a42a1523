"""Monte Carlo fault-injection experiments.

Sweeps inject stuck-at faults into a model's flattened weight blocks at a
grid of bit error rates, apply a protection scheme per block, and measure
classification error and total net deviation.  Trials are paired: at a
given (ber, trial index) every scheme sees the identical fault map, so
scheme comparisons are exact rather than statistical.  All randomness
derives from base_seed + trial_index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .codecs import N_CONFIGS, N_REMAP_INVERT, PAYLOAD_BITS, ecp_words
from .memory import (DEFAULT_SA1_FRACTION, WORDS_PER_BLOCK, _draw, apply_stuck, check_ber,
                     generate_fault_maps, stuck_words)
from .nn import MlpModel, QuantizedModel, _forward, dequantized
from .objective import best_encodings, deviation_words
from .prng import trial_seed
from .weightfile import BlockLayout, flatten_model, layer_views

#: How far above its fault-free error a sweep's mean error may rise before
#: :func:`robustness_improvement` counts the sweep as collapsed.
ERROR_BUDGET = 0.05


@dataclass(frozen=True)
class Scheme:
    """Per-block protection strategy applied during a trial."""

    kind: str
    ecp_n: int = 1

    KINDS = ("baseline", "ecp", "remap_invert", "craft")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}")
        if self.kind == "ecp" and self.ecp_n < 1:
            raise ValueError("ecp needs at least one pointer")

    @property
    def name(self) -> str:
        return f"ecp{self.ecp_n}" if self.kind == "ecp" else self.kind

    def __str__(self) -> str:
        return self.name

    @property
    def n_configs(self) -> int:
        """How many configs this scheme searches, a prefix of aux-code order
        (0 for the schemes that do not encode)."""
        if self.kind == "craft":
            return N_CONFIGS
        if self.kind == "remap_invert":
            return N_REMAP_INVERT
        return 0

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        text = text.strip().lower()
        if text in cls.KINDS:
            return cls(kind=text)
        if text.startswith("ecp") and text[3:].isascii() and text[3:].isdigit():
            return cls(kind="ecp", ecp_n=int(text[3:]))
        raise ValueError(f"unknown scheme {text!r}")


@dataclass(frozen=True)
class TrialRecord:
    ber: float
    trial: int
    classification_error: float
    total_delta: float


@dataclass(frozen=True)
class BerPoint:
    ber: float
    mean_error: float
    std_error: float
    mean_delta: float


@dataclass(frozen=True)
class SweepResult:
    scheme: str
    ber_points: tuple[BerPoint, ...]
    trials: int
    seed: int
    fault_free_error: float
    records: tuple[TrialRecord, ...]


@dataclass(frozen=True)
class CriticalityPoint:
    position: int
    mean_error: float
    std_error: float
    mean_delta: float


@dataclass(frozen=True)
class CriticalityResult:
    points: tuple[CriticalityPoint, ...]
    ber: float
    trials: int
    seed: int
    fault_free_error: float


@dataclass(frozen=True)
class RobustnessRatio:
    """BER*_a / BER*_b, where BER* is where a curve leaves the error budget."""

    ratio: float
    ber_a: float
    ber_b: float
    censored_a: bool
    censored_b: bool

    @property
    def censored(self) -> bool:
        return self.censored_a or self.censored_b


#: Most points a BER grid may hold.
MAX_BER_GRID_POINTS = 10_000
#: Most trial results one run may hold: schemes x BER points x trials for
#: :func:`ber_sweep`, word bits x trials for :func:`bit_criticality`.  The
#: count is checked before the run allocates its results or scores a trial.
MAX_TRIAL_RESULTS = 10_000_000


def default_ber_grid(lo: float = 1e-5, hi: float = 1e-1, per_decade: int = 5) -> list[float]:
    """Logarithmic BER grid from lo to hi, per_decade points per decade.

    Bounds must satisfy 0 < lo <= hi <= 1 (which also rules out NaN and
    infinities), and the grid may hold at most :data:`MAX_BER_GRID_POINTS`
    points; its size is checked before it is built.
    """
    if not 0 < lo <= hi <= 1:
        raise ValueError(f"BER grid bounds must satisfy 0 < lo <= hi <= 1, got {lo!r}:{hi!r}")
    if not 1 <= per_decade <= MAX_BER_GRID_POINTS:
        raise ValueError(f"BER grid needs 1 to {MAX_BER_GRID_POINTS} points per decade, "
                         f"got {per_decade}")
    lo_exp, hi_exp = np.log10(lo), np.log10(hi)
    n = int(round((hi_exp - lo_exp) * per_decade)) + 1
    if n > MAX_BER_GRID_POINTS:
        raise ValueError(f"BER grid of {n} points exceeds {MAX_BER_GRID_POINTS}")
    return [float(10.0 ** (lo_exp + i / per_decade)) for i in range(n)]


def check_trials(trials: int) -> int:
    """`trials` if a run may hold that many trials, at least 1; else ValueError."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


def _check_trial_results(n: int, what: str) -> None:
    if n > MAX_TRIAL_RESULTS:
        raise ValueError(f"{what} make {n} trial results, more than {MAX_TRIAL_RESULTS}")


def _apply_schemes(blocks: np.ndarray, layout: BlockLayout, schemes: Sequence[Scheme],
                   fault_maps: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Protect the blocks that hold stuck cells under each scheme, for each
    fault map.

    `blocks` is the (n_blocks, 16) word stream of :func:`flatten_model`,
    and every map covers its bits.  Returns ``(touched, outs, ends)``: the
    maps' touched blocks end to end, map m's being the ascending indices
    ``touched[ends[m-1]:ends[m]]`` of its blocks holding stuck cells, and
    their readout words under each scheme in order, one (len(schemes),
    len(touched), 16) array; every other block reads back unchanged.  This
    is the segmented batch of :meth:`_Readbacks.score`.  The touched blocks
    of all the maps go through one search, one ECP pass and one fault
    application: each works block by block, so a map's results equal those
    of that map alone.  The encoding schemes search nested prefixes of
    aux-code order, so they share one search of the longest (see
    :func:`craft.objective.best_encodings`).
    """
    touched, masks, stucks = [], [], []
    for fault_map in fault_maps:
        mask, stuck = stuck_words(fault_map, layout.n_blocks)
        rows = np.flatnonzero(mask.any(axis=1))
        touched.append(rows)
        masks.append(mask[rows])
        stucks.append(stuck[rows])
    if not fault_maps:
        return (np.empty(0, dtype=np.intp),
                np.empty((len(schemes), 0, WORDS_PER_BLOCK), dtype=np.uint32),
                np.empty(0, dtype=np.intp))
    ends = np.cumsum([rows.size for rows in touched])
    at = np.concatenate(touched)
    mask, stuck, words = np.concatenate(masks), np.concatenate(stucks), blocks[at]
    del masks, stucks  # a grid's rows are held once, not twice
    outs = np.empty((len(schemes), len(at), WORDS_PER_BLOCK), dtype=np.uint32)
    for out, scheme in zip(outs, schemes):
        if scheme.kind == "baseline":
            out[...] = apply_stuck(words, mask, stuck)
        elif scheme.kind == "ecp":
            out[...] = ecp_words(words, mask, stuck, scheme.ecp_n)
    # The search runs last, so its readbacks are not held while ECP works.
    searched = [(out, s.n_configs) for out, s in zip(outs, schemes) if s.n_configs]
    scales = layout.block_scales()
    scale = None if scales is None else scales[at]
    found = best_encodings(words, mask, stuck, layout.precision, scale,
                           [size for _, size in searched])
    for (out, _), (_, readback, _) in zip(searched, found):
        out[...] = readback
    return at, outs, ends


def _summaries(errs: np.ndarray, deltas: np.ndarray) -> Iterator[tuple[float, float, float]]:
    """Per leading index of (..., trials) `errs` and `deltas`, the mean error,
    the population std of the error (``ddof=0``) and the mean deviation."""
    return zip(errs.mean(axis=-1).tolist(), errs.std(axis=-1).tolist(),
               deltas.mean(axis=-1).tolist())


def _segment_sums(values: np.ndarray, segment: np.ndarray, n_segments: int) -> np.ndarray:
    """Sums of (K, rows) `values` over each of `n_segments` runs of rows,
    `segment` being each row's run: the (K, n_segments) totals, each added
    left to right in row order (one ``bincount`` over ``k * n_segments +
    s``, which adds its weights in input order), so that a total does not
    depend on the interpreter's or numpy's float summation algorithm.  An
    empty run sums to 0."""
    k = len(values)
    keys = (np.arange(k)[:, None] * n_segments + segment).ravel()
    return np.bincount(keys, weights=values.ravel(),
                       minlength=k * n_segments).reshape(k, n_segments)


#: Most readback rows, readbacks x touched blocks, that one scoring pass
#: holds (see :func:`_groups`): a pass's float64 temporaries take a few KB
#: per row.
_PASS_ROWS = 4096


def _groups(items, rows) -> Iterator[list]:
    """Runs of consecutive `items`, in order, each as long as its summed
    `rows(item)` stays within :data:`_PASS_ROWS`; a run holds at least one
    item, however many rows it has.  `items` is read lazily, one item
    past the run it ends."""
    group, held = [], 0
    for item in items:
        n = rows(item)
        if group and held + n > _PASS_ROWS:
            yield group
            group, held = [], 0
        group.append(item)
        held += n
    if group:
        yield group


#: Relative slack of the readback certificate (see :class:`_Readbacks`):
#: far above the few roundings of relative size 2^-53 that the certificate's
#: own float evaluation makes, and far below the margins it certifies.
_CERT_SLACK = 2.0 ** -20
_UNIT_ROUNDOFF = 2.0 ** -53
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT64_TINY = float(np.finfo(np.float64).tiny)


class _Readbacks:
    """Total deviations and test errors of faulty readbacks of one
    fault-free block stream.

    A readback is the stream with the blocks at `touched` reading `out`;
    :meth:`score` scores a batch of them, K readbacks over each of S
    segments of blocks.  No
    readback rebuilds the model.  Kept from the fault-free stream: its
    weights as float64 in (n_blocks, weights_per_block) slots, whose
    :func:`craft.weightfile.layer_views` are the layer matrices, each slot's
    row and column in its layer's matrix written through the same views (-1
    in pad slots), the float64 biases and every layer's activations on the
    test set.  A readback equal to the fault-free stream, or whose words
    decode to the same float64 weights bit for bit (faults only in pad
    slots, say), takes the fault-free error, and so does one that the
    certificate below proves cannot move any test row's argmax.  Any other is written into the
    touched rows of slots, the layers from the first changed one rerun from
    its kept input activation into kept work arrays, and the rows restored.
    The words decode as :func:`craft.weightfile.unflatten_model`,
    :func:`craft.nn.dequantized` and :func:`craft.nn.infer` do, so every
    matmul gets a rebuilt model's operands and the errors match bit for bit.

    **The certificate.**  Let a readback change the weights ``W_L -> W_L +
    D_L`` of one or more layers, the first being F.  Both runs start from
    the same kept input ``acts[F]``, as the layers before F are unchanged.
    Two exact runs from one input whose layer-L weights differ by ``V_L``
    and biases by ``v_L`` give logits that differ, row r, by at most ``sum_L
    (|x_L[r]| |V_L| + |v_L|) Q_L``, where ``x_L`` is the first run's layer-L
    input and ``Q_L`` the product of the second run's later ``|weights|``
    (ReLU is 1-Lipschitz).  A computed layer is an exact one whose weights
    are off by at most ``gamma_n |W|`` and whose bias by at most ``gamma_n
    |b|`` plus n times the smallest normal: for an inner product of length
    n, ``fl = sum x_i y_i (1 + t_i)`` with ``|t_i| <= gamma_n = n u / (1 -
    n u)``, ``u = 2^-53``, in any summation order and with FMA, and an
    underflowed product adds at most the smallest normal (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 3); n is fan-in + 1
    for the bias add.  Take the computed fault-free run, whose layer inputs
    are ``acts``, as the first run and the computed readback as the second:
    then ``|V_L| <= (1 + gamma_n) |D_L| + 2 gamma_n |W_L|``, and row r's
    computed logits move by at most ``(1 + g) (S_r + 2 R')``, where

    - ``S_r = max_c sum_L sum_ij |acts[L][r, i]| |D_L,ij| Q'_L[j, c]`` and
      ``Q'_L = (|W_L+1| + |D_L+1|) ... (|W_last| + |D_last|)`` (``Q'_last =
      I``) is the readback's downstream product;
    - ``R' = sum_{L >= F} rho_L ||Q'_L||_1``, where ``rho_L = gamma_n
      (max|acts[L]| ||W_L||_1 + max|b_L|) + n tiny`` bounds every entry of
      one run's layer-L rounding and ``||.||_1`` is the largest column
      abs-sum;
    - g, about the sum of the layers' ``gamma_n``, is far below
      ``_CERT_SLACK``.

    Each row's fault-free top-1 logit beats its runner-up by ``m_r`` (0 on
    a tie), so every argmax, first-maximum tie-break included, stays put
    when ``(1 + g) (S_r + 2 R') < m_r / 2``.  The build keeps the rounding
    budget ``E = sum_L rho_L prod_{M > L} ||W_M||_1``, ``room_r = (m_r (1 -
    _CERT_SLACK) / 2 - 2 E (1 + _CERT_SLACK)) / (1 + _CERT_SLACK)`` and
    ``a_L[i] = max_r |acts[L][r, i]| / room_r``.  Over a readback's changed
    slots, ``B = sum |D_L,ij| a_L[i] max_c Q'_L[j, c]`` is at least ``S_r /
    room_r`` for every row, and the readback passes when ``B (1 +
    _CERT_SLACK) + 2 max(R' (1 + _CERT_SLACK) - E, 0) / min_r room_r <=
    1``: rounding beyond the budget spends room that the change leaves.
    The slack covers every rounding of the certificate's own arithmetic
    (margins, ``Q'``, ``a``, the coefficients and the sums).

    A change to one layer has ``Q'_L = P_L = |W_L+1| ... |W_last|`` for
    every L from F on, so ``R' <= E``, and the check is ``sum |D_ij|
    coef_ij (1 + _CERT_SLACK) <= 1`` with the per-slot ``coef_ij = a_L[i]
    max_c P_L[j, c]`` built once.  A change to several layers has ``Q' >=
    P``, so that sum never exceeds its ``B`` and refuses most of them for
    free; the rest form ``Q'`` per readback, from their last changed layer
    down, and gather it only at their changed slots (:meth:`_downstream`).
    The rounding model needs a run that never overflows: its weights are
    finite float32 values (a non-finite change fails the check), so the
    build bounds every value that a run can compute whose every layer from
    its first changed one on may hold weights of up to the float32 maximum,
    and certifies nothing unless that one bound is finite; a run that
    changes one layer is such a run too.  Nor does it certify anything when
    a margin is not positive beyond ``2 E`` (a tied or near-tied row) or any
    value of the build is not finite: every ``coef`` is then inf.  A NaN or
    infinite change, or a signed-zero change under an inf coefficient (``0 *
    inf``), makes the check's sum NaN or inf, so the readback runs the
    forward.  This is interval bound propagation (Gowal et al.,
    arXiv:1810.12715) on the weights instead of the input.
    """

    def __init__(self, blocks: np.ndarray, layout: BlockLayout, dataset):
        self.blocks = blocks
        self.layout = layout
        self.block_layer = layout.block_layer
        self.scale = None
        if layout.quant is not None:
            # each block's u8 scale and zero point, as (n_blocks, 1) columns
            self.scale, self.zero_point = np.asarray(layout.quant)[self.block_layer].T[..., None]
        self.flat = self._decode(np.arange(layout.n_blocks), blocks)
        self.weights = layer_views(self.flat, layout)
        # each slot's row and column in its layer's matrix, -1 in pad slots
        self.row, self.col = np.full((2,) + self.flat.shape, -1)
        for rows, cols in zip(layer_views(self.row, layout), layer_views(self.col, layout)):
            rows[...] = np.arange(rows.shape[0])[:, None]
            cols[...] = np.arange(cols.shape[1])
        self.real = self.row >= 0
        self.biases = [b.astype(np.float64) for b in layout.biases]
        inputs = np.asarray(dataset.test_inputs, dtype=np.float64)
        self.labels = np.asarray(dataset.test_labels)
        self.acts = [inputs] + [np.empty((inputs.shape[0], c)) for _, c in layout.shapes]
        self.work = [np.empty_like(a) for a in self.acts[1:]]
        self.fault_free = self._error(_forward(self.weights, self.biases, inputs, self.acts[1:]))
        self.coef = self._coefficients()

    def _decode(self, touched: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The float64 weights that the blocks at `touched` reading `out`
        hold, one per slot, pad slots included.  `out` is (..., len(touched),
        16): the per-block u8 scale and zero point broadcast over any
        leading readback axes."""
        raw = np.ascontiguousarray(out, dtype="<u4")
        # words from faulty storage may decode to NaN, whose cast raises the
        # invalid flag, or to u8 values past the float32 range
        with np.errstate(invalid="ignore", over="ignore"):
            if self.scale is None:
                return raw.view("<f4").astype(np.float64)
            return dequantized(raw.view(np.uint8), self.scale[touched],
                               self.zero_point[touched]).astype(np.float64)

    def _error(self, logits: np.ndarray) -> float:
        hits = int(np.count_nonzero(np.argmax(logits, axis=1) == self.labels))
        return 1.0 - hits / self.labels.size

    def _coefficients(self) -> np.ndarray:
        """The certificate's ``coef`` in slot shape (see the class
        docstring), all inf when it can certify nothing.  Also keeps what
        the several-layer check needs: each layer's ``|W|``, ``P``, ``a``
        and ``rho``, and the rounding budget ``E``."""
        coef = np.zeros_like(self.flat)
        self.absw = [np.abs(w) for w in self.weights]
        logits = self.acts[-1]
        n, classes = logits.shape
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            err = reach = 0.0
            self.rho = []
            for w, b, h in zip(self.absw, self.biases, self.acts):
                fan_in = w.shape[0] + 1
                gamma = fan_in * _UNIT_ROUNDOFF / (1 - fan_in * _UNIT_ROUNDOFF)
                size = max(float(h.max()), -float(h.min()))
                norm = float(w.sum(axis=0).max())
                bias = float(np.abs(b).max())
                self.rho.append(gamma * (size * norm + bias) + fan_in * _FLOAT64_TINY)
                err = err * norm + self.rho[-1]
                # largest value of a run that may have changed every layer
                # from this one or an earlier one on
                reach = 2 * (fan_in * max(reach, size) * _FLOAT32_MAX + bias)
            self.budget = err
            self.p = [np.eye(classes)]
            for w in self.absw[:0:-1]:
                self.p.insert(0, w @ self.p[0])
            # each row's top logit and runner-up (-inf for one class), equal on a tie
            top, second = np.full(n, -np.inf), np.full(n, -np.inf)
            for c in range(classes):
                np.maximum(second, np.minimum(top, logits[:, c]), out=second)
                np.maximum(top, logits[:, c], out=top)
            room = ((top - second) * (1 - _CERT_SLACK) / 2
                    - 2 * err * (1 + _CERT_SLACK)) / (1 + _CERT_SLACK)
            self.least_room = float(room.min())
            inv = (1 / room)[:, None]
            self.a = [(np.abs(h) * inv).max(axis=0) for h in self.acts[:-1]]
            for a, w, p in zip(self.a, layer_views(coef, self.layout), self.p):
                np.multiply(a[:, None], p.max(axis=1), out=w)
            if not (np.isfinite(reach) and self.least_room > 0 and np.isfinite(coef).all()):
                coef.fill(np.inf)
        return coef

    def _certified(self, touched: np.ndarray, values: np.ndarray, changed: np.ndarray,
                   segment: np.ndarray, ends: np.ndarray, first: np.ndarray,
                   last: np.ndarray) -> np.ndarray:
        """Which of the (K, S) readbacks of a segmented batch (see
        :meth:`score`), the blocks at `touched` decoding to `values` and
        changing the real slots `changed`, segment s of readback k in layers
        ``first[k, s]`` to ``last[k, s]`` (-1 for none), the certificate
        proves keep every test row's argmax.  Each that changes a weight
        must pass ``sum |D| coef (1 + _CERT_SLACK) <= 1`` over its changed
        slots, and each that changes several layers the check of
        :meth:`_downstream` too, one segment at a time."""
        with np.errstate(invalid="ignore", over="ignore"):
            absd = np.abs(values - self.flat[touched])
            terms = absd * self.coef[touched]
        terms[~changed] = 0.0
        bound = _segment_sums(terms.sum(axis=2), segment, len(ends))
        passed = (last >= 0) & (bound * (1 + _CERT_SLACK) <= 1)
        several = passed & (first < last)
        for s in np.flatnonzero(several.any(axis=0)).tolist():
            rows = slice(int(ends[s - 1]) if s else 0, int(ends[s]))
            ks = np.flatnonzero(several[:, s])
            passed[ks, s] = self._downstream(touched[rows], absd[ks, rows], changed[ks, rows],
                                             first[ks, s])
        return passed

    def _downstream(self, touched: np.ndarray, absd: np.ndarray, changed: np.ndarray,
                    first: np.ndarray) -> np.ndarray:
        """Whether each of n readbacks that change several layers, ``|D|``
        being `absd` at its changed slots `changed` (both (n, len(touched),
        weights per block)) and `first` its first changed layer, passes the
        check on ``B`` and ``R'`` of the class docstring.  Only the union of
        their changed slots is gathered, with its weights' rows and columns
        read from the slot tables, and ``Q'`` is formed per readback only
        below a layer that one of them changes: above it, ``Q' = P``."""
        t, s = np.nonzero(changed.any(axis=0))
        d = np.where(changed[:, t, s], absd[:, t, s], 0.0)
        blocks = touched[t]
        layer = self.block_layer[blocks]
        i, j = self.row[blocks, s], self.col[blocks, s]
        bound, rounding = np.zeros(len(first)), np.zeros(len(first))
        top = int(first.min())
        q = None  # Q'_L, (n, width, classes), once a layer above L changed; P_L until then
        with np.errstate(over="ignore", invalid="ignore"):
            for L in range(len(self.p) - 1, top - 1, -1):
                here = layer == L
                qL = self.p[L] if q is None else q
                rows = qL[..., j[here], :]
                bound += (d[:, here] * self.a[L][i[here]] * rows.max(axis=-1)).sum(axis=1)
                rounding += np.where(first <= L, self.rho[L] * qL.sum(axis=-2).max(axis=-1), 0.0)
                if L == top:
                    break
                if q is not None:
                    q = self.absw[L] @ q
                elif here.any():
                    q = np.repeat(self.p[L - 1][None], len(first), axis=0)
                if here.any():
                    np.add.at(q, (slice(None), i[here]), d[:, here, None] * rows)
            excess = np.maximum(rounding * (1 + _CERT_SLACK) - self.budget, 0.0)
            return bound * (1 + _CERT_SLACK) + 2 * excess / self.least_room <= 1

    def score(self, touched: np.ndarray, outs: np.ndarray,
              ends: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Total deviations and test errors of a segmented batch of
        readbacks: (K, S) arrays, for K readbacks of each of S segments.

        `outs` is (K, len(touched), 16); segment s is the blocks
        ``touched[ends[s-1]:ends[s]]`` (from 0 for s = 0), ascending, and
        readback (k, s) has them read ``outs[k, ends[s-1]:ends[s]]``.  An
        empty segment reads total 0 and the fault-free error.  The segments
        are scored in passes of consecutive ones, each holding at most
        :data:`_PASS_ROWS` readback rows or one segment (see
        :func:`_groups`).
        """
        ends = np.asarray(ends, dtype=np.intp)
        starts = np.concatenate(([0], ends[:-1])).astype(np.intp)
        k = len(outs)
        totals, errs = np.empty((k, len(ends))), np.empty((k, len(ends)))
        for group in _groups(range(len(ends)), lambda s: k * int(ends[s] - starts[s])):
            lo, hi = group[0], group[-1] + 1
            rows = slice(int(starts[lo]), int(ends[hi - 1]))
            totals[:, lo:hi], errs[:, lo:hi] = self._score_pass(
                touched[rows], outs[:, rows], ends[lo:hi] - starts[lo])
        return totals, errs

    def _score_pass(self, touched: np.ndarray, outs: np.ndarray,
                    ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`score` of one pass, its segments ending at `ends`.

        A readback's total deviation adds its blocks' deviations from the
        fault-free ones left to right (see :func:`_segment_sums`).  All
        rows decode and compare with the kept weights in one pass, and each
        readback's first and last changed layer come from one minimum and
        one maximum per segment.  A readback that changes no weight takes
        the fault-free error without another inference, and so does every
        one whose change, to one layer or several, the certificate of the
        class docstring proves cannot move any test row's argmax.  The rest
        run inference, segment by segment, each from its own first changed
        layer.
        """
        n_segments = len(ends)
        starts = np.concatenate(([0], ends[:-1])).astype(np.intp)
        segment = np.repeat(np.arange(n_segments), ends - starts)
        scale = None if self.scale is None else self.scale[touched, 0]
        totals = _segment_sums(deviation_words(self.blocks[touched], outs,
                                               self.layout.precision, scale),
                               segment, n_segments)
        values = self._decode(touched, outs)
        kept = self.flat[touched]
        changed = (values.view(np.uint64) != kept.view(np.uint64)) & self.real[touched]
        rows = changed.any(axis=2)
        layer = self.block_layer[touched]
        n_layers = len(self.biases)
        first = np.full((len(outs), n_segments), n_layers)
        last = np.full((len(outs), n_segments), -1)
        filled = starts < ends
        if filled.any():
            at = starts[filled]
            first[:, filled] = np.minimum.reduceat(np.where(rows, layer, n_layers), at, axis=1)
            last[:, filled] = np.maximum.reduceat(np.where(rows, layer, -1), at, axis=1)
        infer = last >= 0
        if infer.any():
            infer &= ~self._certified(touched, values, changed, segment, ends, first, last)
        errs = np.full((len(outs), n_segments), self.fault_free)
        for s, k in zip(*np.nonzero(infer.T)):
            span = slice(int(starts[s]), int(ends[s]))
            start = int(first[k, s])
            self.flat[touched[span]] = values[k, span]
            try:
                errs[k, s] = self._error(_forward(self.weights, self.biases, self.acts[start],
                                                  self.work, start))
            finally:
                self.flat[touched[span]] = kept[span]
        return totals, errs


def ber_sweep(model: MlpModel | QuantizedModel, dataset,
              schemes: Sequence[Scheme], ber_list: Sequence[float], trials: int,
              base_seed: int, threads: int = 1) -> list[SweepResult]:
    """Run trials for every scheme x BER with paired fault maps.

    Every trial runs in the calling thread, trial by trial, and the
    results are reduced in (scheme, ber, trial) order, so output is
    order-deterministic.  A stuck cell is SA1 with probability
    :data:`craft.memory.DEFAULT_SA1_FRACTION`.  `threads` must be 1, every
    BER in [0, 1] and every scheme name distinct (checked before the first
    trial), and the run may hold at most :data:`MAX_TRIAL_RESULTS` results.

    Trial t's map at every BER is drawn from seed ``trial_seed(base_seed,
    t)``, so a trial draws its whole grid at once
    (:func:`craft.memory.generate_fault_maps`) and protects it in one pass
    of :func:`_apply_schemes`.  Work memory therefore grows with the grid,
    not with the trials: one trial's maps, 9 bytes per stuck cell, and a
    pass of about 650 bytes per block that a map touches, summed over the
    grid, with four schemes.  A 21-point grid on a 16-256-256-4 fp32 model
    touches 45k blocks, a traced peak of 29 MB.  A trial's scheme
    readbacks of every map are scored, total deviation and test error, in
    one segmented :meth:`_Readbacks.score` call, one segment per map, which
    walks the grid in passes of at most :data:`_PASS_ROWS` readback rows
    (or one map) and runs inference only where it must.
    """
    check_trials(trials)
    if threads != 1:
        raise ValueError(f"ber_sweep runs every trial in the calling thread; "
                         f"threads must be 1, got {threads}")
    for ber in ber_list:
        check_ber(ber)
    if len({s.name for s in schemes}) < len(schemes):
        raise ValueError(f"repeated scheme in {','.join(map(str, schemes))}")
    _check_trial_results(len(schemes) * len(ber_list) * trials,
                         f"{len(schemes)} schemes x {len(ber_list)} BER points x {trials} trials")
    blocks, layout = flatten_model(model)
    region = layout.n_blocks * PAYLOAD_BITS
    readbacks = _Readbacks(blocks, layout, dataset)
    errs = np.empty((len(schemes), len(ber_list), trials))
    deltas = np.empty_like(errs)
    for t in range(trials):
        maps = generate_fault_maps(region, ber_list, DEFAULT_SA1_FRACTION,
                                   trial_seed(base_seed, t))
        deltas[:, :, t], errs[:, :, t] = readbacks.score(*_apply_schemes(blocks, layout,
                                                                          schemes, maps))

    results = []
    for si, scheme in enumerate(schemes):
        records = tuple(TrialRecord(float(ber), t, float(errs[si, bi, t]),
                                    float(deltas[si, bi, t]))
                        for bi, ber in enumerate(ber_list) for t in range(trials))
        points = tuple(BerPoint(float(ber), *summary)
                       for ber, summary in zip(ber_list, _summaries(errs[si], deltas[si])))
        results.append(SweepResult(
            scheme=scheme.name, ber_points=points, trials=trials,
            seed=base_seed, fault_free_error=readbacks.fault_free, records=records,
        ))
    return results


def bit_criticality(model: MlpModel | QuantizedModel, dataset, ber: float = 1e-3,
                    trials: int = 100, base_seed: int = 0) -> CriticalityResult:
    """Inject faults at one bit position of every weight word at a time.

    For each position p, the candidate cells are bit p of every word in the
    flattened stream (no protection scheme is applied).  The same per-trial
    seed is reused across positions, so the stuck word pattern is paired.

    Each trial's stuck words are drawn once, over the words, by the draw
    of :func:`craft.memory.generate_fault_map` (no fault map is built),
    and serve every position.  Trials are drawn in order and scored in
    groups of consecutive ones, each holding at most :data:`_PASS_ROWS`
    readback rows (positions x touched blocks) or one trial.  A group's
    stuck words are scattered straight into the rows of its trials'
    touched blocks, trial after trial: a 1 in the mask and the stuck value
    in the stuck array at each stuck word's weight-sized unit.  Read as
    uint32 words, they are position 0's (mask, stuck) words, bit 0 of an
    fp32 word or bit 8*(i % 4) of the word that holds u8 byte i, and
    position p's are them shifted left by p.  All positions of a group are
    built in one pass and scored, total deviation and test error, in one
    segmented :meth:`_Readbacks.score` call, one segment per trial, which
    at BER 1e-3 runs inference for few of them.  The run may hold at most
    :data:`MAX_TRIAL_RESULTS` results.
    """
    check_trials(trials)
    check_ber(ber)
    blocks, layout = flatten_model(model)
    word_bits = layout.precision.word_bits
    _check_trial_results(word_bits * trials, f"{word_bits} bit positions x {trials} trials")
    units = PAYLOAD_BITS // word_bits  # per block
    n_words = layout.n_blocks * units
    readbacks = _Readbacks(blocks, layout, dataset)
    shifts = np.arange(word_bits, dtype=np.uint32)[:, None, None]
    errs = np.empty((word_bits, trials))
    deltas = np.empty((word_bits, trials))

    def drawn():
        """Per trial in order: its stuck words and their values, each
        word's block, which words start a touched row, and how many do."""
        for t in range(trials):
            [(cells, values)] = _draw(n_words, [ber], DEFAULT_SA1_FRACTION,
                                      trial_seed(base_seed, t))
            block = cells // units
            new = np.ones(block.size, dtype=bool)
            np.not_equal(block[1:], block[:-1], out=new[1:])
            yield cells, values, block, new, int(np.count_nonzero(new))

    t = 0
    for group in _groups(drawn(), lambda d: word_bits * d[4]):
        cells, values, block, new = (np.concatenate(a) for a in list(zip(*group))[:4])
        row = np.cumsum(new) - 1
        touched = block[new]
        ends = np.cumsum([d[4] for d in group])
        scattered = np.zeros((2, touched.size * units), dtype=f"<u{word_bits // 8}")
        slot = row * units + cells % units
        scattered[0, slot] = 1
        scattered[1, slot] = values
        mask0, stuck0 = scattered.view("<u4").reshape(2, touched.size, WORDS_PER_BLOCK)
        outs = apply_stuck(blocks[touched], mask0 << shifts, stuck0 << shifts)
        deltas[:, t:t + len(group)], errs[:, t:t + len(group)] = readbacks.score(touched, outs,
                                                                                ends)
        t += len(group)
    points = tuple(CriticalityPoint(p, *summary)
                   for p, summary in enumerate(_summaries(errs, deltas)))
    return CriticalityResult(points=points, ber=ber, trials=trials,
                             seed=base_seed, fault_free_error=readbacks.fault_free)


def second_zero_exponent_bit(model: MlpModel) -> int:
    """The exponent bit below 30 that is most often zero across the weights.

    Bit 30 is the first almost-always-zero position for trained weights
    (|w| < 2); this returns the next such position, the one whose stuck-at-1
    faults blow weights up by the largest factor.  Ties break toward the
    higher bit.
    """
    raw = np.concatenate([np.ascontiguousarray(w, dtype="<f4").reshape(-1).view("<u4")
                          for w in model.weights])
    positions = np.arange(23, 30)
    zero_frac = [float(((raw >> int(p)) & 1 == 0).mean()) for p in positions]
    best = max(range(len(positions)), key=lambda i: (zero_frac[i], positions[i]))
    return int(positions[best])


def _threshold_crossing(sweep: SweepResult) -> tuple[float, bool]:
    """Largest BER at which the curve stays within fault-free + ERROR_BUDGET.

    Interpolates linearly in log10(BER) between the last within-budget grid
    point and the first exceeding one.  Returns (ber, censored): censored
    means the curve never exceeds the budget on the grid, so the value is a
    lower bound.
    """
    limit = sweep.fault_free_error + ERROR_BUDGET
    bers = [p.ber for p in sweep.ber_points]
    errors = [p.mean_error for p in sweep.ber_points]
    within = [i for i, e in enumerate(errors) if e <= limit]
    if not within:
        return bers[0], False
    i = max(within)
    if i == len(bers) - 1:
        return bers[-1], True
    lo, hi = np.log10(bers[i]), np.log10(bers[i + 1])
    t = (limit - errors[i]) / (errors[i + 1] - errors[i])
    return float(10.0 ** (lo + t * (hi - lo))), False


def robustness_improvement(sweep_a: SweepResult, sweep_b: SweepResult) -> RobustnessRatio:
    """How much later (in BER) sweep_a's error collapses compared to sweep_b.

    Each collapses where its mean error first exceeds its fault-free error by
    :data:`ERROR_BUDGET`, on a shared BER grid, strictly ascending and above 0.
    """
    bers = [p.ber for p in sweep_a.ber_points]
    if bers != [p.ber for p in sweep_b.ber_points]:
        raise ValueError("sweeps must share the same BER grid")
    if not (bers and bers[0] > 0 and all(lo < hi for lo, hi in zip(bers, bers[1:]))):
        raise ValueError(f"robustness needs a strictly ascending BER grid above 0, got {bers}")
    ber_a, cens_a = _threshold_crossing(sweep_a)
    ber_b, cens_b = _threshold_crossing(sweep_b)
    return RobustnessRatio(ratio=ber_a / ber_b, ber_a=ber_a, ber_b=ber_b,
                           censored_a=cens_a, censored_b=cens_b)


def _write_rows(fh, header: str, columns) -> None:
    """Write `header`, then one line per row: the row's value in each of
    `columns`, joined by ``,``.  A float64 array column is written as the
    ``repr`` of its values, formatted once per distinct bit pattern (so
    ``-0.0`` stays apart from ``0.0``); any other column as ``str`` of each
    item."""
    cells = [_float_text(c) if isinstance(c, np.ndarray) and c.dtype == np.float64
             else map(str, c) for c in columns]
    fh.write("\n".join([header, *map(",".join, zip(*cells)), ""]))


def _float_text(values: np.ndarray) -> np.ndarray:
    patterns, where = np.unique(np.ascontiguousarray(values).view(np.uint64),
                                return_inverse=True)
    return np.array(list(map(repr, patterns.view(np.float64).tolist())), dtype=object)[where]


def _write_results(path, rows, record_type, schemes=None) -> None:
    """Write `rows` of the dataclass `record_type` as a CSV, one column per
    field, after a ``scheme`` column of `schemes` (one name per row) if given."""
    names = [f.name for f in fields(record_type)]
    columns = [np.array([getattr(row, name) for row in rows]) for name in names]
    if schemes is not None:
        names, columns = ["scheme", *names], [schemes, *columns]
    with open(path, "w") as fh:
        _write_rows(fh, ",".join(names), columns)


def write_raw_csv(results: Sequence[SweepResult], path) -> None:
    _write_results(path, [r for res in results for r in res.records], TrialRecord,
                   [res.scheme for res in results for _ in res.records])


def write_summary_csv(results: Sequence[SweepResult], path) -> None:
    _write_results(path, [p for res in results for p in res.ber_points], BerPoint,
                   [res.scheme for res in results for _ in res.ber_points])


def write_criticality_csv(result: CriticalityResult, path) -> None:
    _write_results(path, result.points, CriticalityPoint)
