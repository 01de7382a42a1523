"""Monte Carlo fault-injection experiments.

Sweeps inject stuck-at faults into a model's flattened weight blocks at a
grid of bit error rates, apply a protection scheme per block, and measure
classification error and total net deviation.  Trials are paired: at a
given (ber, trial index) every scheme sees the identical fault map, so
scheme comparisons are exact rather than statistical.  All randomness
derives from base_seed + trial_index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codecs import N_CONFIGS, N_REMAP_INVERT, PAYLOAD_BITS, ecp_words
from .memory import (DEFAULT_SA1_FRACTION, WORDS_PER_BLOCK, apply_stuck, generate_fault_map,
                     stuck_words)
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
        if text in ("baseline", "remap_invert", "craft"):
            return cls(kind=text)
        if text == "ecp":
            return cls(kind="ecp", ecp_n=1)
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


def _check_trial_results(n: int, what: str) -> None:
    if n > MAX_TRIAL_RESULTS:
        raise ValueError(f"{what} make {n} trial results, more than {MAX_TRIAL_RESULTS}")


def _apply_schemes(blocks: np.ndarray, layout: BlockLayout, schemes: Sequence[Scheme],
                   fault_map) -> tuple[np.ndarray, np.ndarray]:
    """Protect the blocks that hold stuck cells under each scheme.

    `blocks` is the (n_blocks, 16) word stream of :func:`flatten_model`,
    and `fault_map` covers its bits.  Returns the indices of the blocks
    holding stuck cells and their readout words under each scheme in order,
    one (len(schemes), len(touched), 16) array; every other block reads
    back unchanged.  The encoding schemes search nested prefixes of
    aux-code order, so they share one search of the longest (see
    :func:`craft.objective.best_encodings`).
    """
    mask, stuck = stuck_words(fault_map, layout.n_blocks)
    touched = np.flatnonzero(mask.any(axis=1))
    mask, stuck, words = mask[touched], stuck[touched], blocks[touched]
    scales = layout.block_scales()
    scale = None if scales is None else scales[touched]
    sizes = [s.n_configs for s in schemes if s.n_configs]
    found = iter(best_encodings(words, mask, stuck, layout.precision, scale, sizes))
    outs = np.empty((len(schemes), len(touched), WORDS_PER_BLOCK), dtype=np.uint32)
    for out, scheme in zip(outs, schemes):
        if scheme.kind == "baseline":
            out[...] = apply_stuck(words, mask, stuck)
        elif scheme.kind == "ecp":
            out[...] = ecp_words(words, mask, stuck, scheme.ecp_n)
        else:
            out[...] = next(found)[1]
    return touched, outs


def _in_order_sum(deltas: np.ndarray) -> np.ndarray:
    """Sums of per-block deviations along the last axis, each added left to
    right in block order (a sequential ``cumsum``), so that a total does not
    depend on the interpreter's or numpy's float summation algorithm."""
    if deltas.shape[-1] == 0:
        return np.zeros(deltas.shape[:-1])
    return np.cumsum(deltas, axis=-1)[..., -1]


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
    :meth:`score` scores a batch of them over the same blocks.  No
    readback rebuilds the model.  Kept from the fault-free stream: its
    weights as float64 in (n_blocks, weights_per_block) slots, whose
    :func:`craft.weightfile.layer_views` are the layer matrices, the float64
    biases and every layer's activations on the test set.  A readback equal
    to the fault-free stream, or whose words decode to the same float64
    weights bit for bit (faults only in pad slots, say), takes the
    fault-free error, and so does one that the certificate below proves
    cannot move any test row's argmax.  Any other is written into the
    touched rows of slots, the layers from the first changed one rerun from
    its kept input activation into kept work arrays, and the rows restored.
    The words decode as :func:`craft.weightfile.unflatten_model`,
    :func:`craft.nn.dequantized` and :func:`craft.nn.infer` do, so every
    matmul gets a rebuilt model's operands and the errors match bit for bit.

    **The certificate.**  Let a readback change only layer L's weights,
    ``W -> W + D``.  Both the fault-free logits and the readback's are
    computed from the same kept input ``h = acts[L]`` (layers before L are
    unchanged).  In exact arithmetic the readback moves layer L's
    pre-activation by ``h D``, ReLU is 1-Lipschitz and the later layers'
    weights are unchanged, so row r's logit c moves by at most
    ``S_r = sum_ij |h[r, i]| |D_ij| p_j``, where ``p_j = max_c P_L[j, c]``
    and ``P_L = |W_L+1| ... |W_last|`` (``P_last = I``).  Rounding adds at
    most R to the distance between the two computed logit vectors: for an
    inner product of length n, ``|fl - exact| <= gamma_n |x|.|y|`` with
    ``gamma_n = n u / (1 - n u)``, ``u = 2^-53``, in any summation order
    and with FMA (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., ch. 3); n is fan-in + 1 for the bias add, and an underflowed
    product adds at most the smallest normal.  Carried through the later
    layers with ``||x W||_inf <= ||x||_inf ||W||_1`` (max column abs-sum),
    one run's error is at most ``E``, built from the fault-free
    activations' norms; the readback's run adds terms of at most
    ``gamma_n S_r`` (its activations differ by at most ``S_r`` through
    ``P``) and of order ``gamma_n E``, and ``R = 2 E (1 + _CERT_SLACK)``
    covers both runs.  Each row's fault-free top-1 logit beats its
    runner-up by ``m_r`` (0 on a tie), so every argmax, first-maximum
    tie-break included, stays put when ``S_r + R < m_r / 2``.  With
    ``room_r = (m_r (1 - _CERT_SLACK) / 2 - R) / (1 + _CERT_SLACK)`` and the
    per-slot coefficient ``coef_ij = max_r(|h[r, i]| / room_r) p_j``,
    ``sum_ij |D_ij| coef_ij <= 1`` gives ``S_r <= room_r`` for every row,
    and the slack covers every rounding of the certificate's own
    arithmetic (margins, ``P``, the coefficient and the check's sum).  The
    rounding model needs a run that never overflows: its weights are finite
    float32 values (a non-finite change fails the check), so the build
    bounds every value that any one-layer readback's run can compute with
    weights of up to the float32 maximum, and certifies nothing unless that
    bound is finite.  Nor does it certify anything when a margin is not
    positive beyond R (a tied or near-tied row) or any value of the build
    is not finite: every ``coef`` is then inf.  A NaN or infinite change,
    or a signed-zero change under an inf coefficient (``0 * inf``), makes
    the check's sum NaN or inf, so the readback runs the forward, as do
    those that change several layers.  This is interval bound propagation
    (Gowal et al., arXiv:1810.12715) on the weights instead of the input.
    """

    def __init__(self, blocks: np.ndarray, layout: BlockLayout, dataset):
        self.blocks = blocks
        self.layout = layout
        self.block_layer = np.repeat(np.arange(len(layout.shapes)), layout.layer_blocks)
        self.scale = None
        if layout.quant is not None:
            # each block's u8 scale and zero point, as (n_blocks, 1) columns
            self.scale, self.zero_point = np.asarray(layout.quant)[self.block_layer].T[..., None]
        self.flat = self._decode(np.arange(layout.n_blocks), blocks)
        self.weights = layer_views(self.flat, layout)
        self.real = np.zeros(self.flat.shape, dtype=bool)
        for view in layer_views(self.real, layout):
            view[...] = True
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
        docstring), all inf when it can certify nothing."""
        coef = np.abs(self.flat)
        absw = layer_views(coef, self.layout)  # |W| until each layer's coef overwrites it
        logits = self.acts[-1]
        n, classes = logits.shape
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            err = reach = worst = 0.0
            for w, b, h in zip(absw, self.biases, self.acts):
                fan_in = w.shape[0] + 1
                gamma = fan_in * _UNIT_ROUNDOFF / (1 - fan_in * _UNIT_ROUNDOFF)
                size = max(float(h.max()), -float(h.min()))
                norm = float(w.sum(axis=0).max())
                bias = float(np.abs(b).max())
                err = (err * norm + gamma * (size * norm + bias)
                       + fan_in * _FLOAT64_TINY)
                # largest value of a run that changed this layer or an earlier one
                reach = 2 * (max(reach * norm, fan_in * size * _FLOAT32_MAX) + bias)
                worst = max(worst, reach)
            p, down = [np.ones(classes)], np.eye(classes)
            for w in absw[:0:-1]:
                down = w @ down
                p.insert(0, down.max(axis=1))
            # each row's top logit and runner-up (-inf for one class), equal on a tie
            top, second = np.full(n, -np.inf), np.full(n, -np.inf)
            for c in range(classes):
                np.maximum(second, np.minimum(top, logits[:, c]), out=second)
                np.maximum(top, logits[:, c], out=top)
            room = ((top - second) * (1 - _CERT_SLACK) / 2
                    - 2 * err * (1 + _CERT_SLACK)) / (1 + _CERT_SLACK)
            inv = 1 / room
            # max_r |h[r, i]| / room_r, a block of columns at a time in a work array
            buf = max(self.work, key=np.size).reshape(-1)
            step = buf.size // n
            for h, w, pj in zip(self.acts, absw, p):
                a = np.empty(h.shape[1])
                for c in range(0, h.shape[1], step):
                    t = buf[:n * min(step, h.shape[1] - c)].reshape(-1, n)
                    np.multiply(np.abs(h[:, c:c + step].T, out=t), inv, out=t)
                    t.max(axis=1, out=a[c:c + step])
                np.multiply(a[:, None], pj, out=w)
            if not (np.isfinite(worst) and room.min() > 0 and np.isfinite(coef).all()):
                coef.fill(np.inf)
        return coef

    def _certified(self, touched: np.ndarray, values: np.ndarray, changed: np.ndarray,
                   candidates: np.ndarray) -> np.ndarray:
        """Which of K readbacks, the blocks at `touched` decoding to `values`
        and changing the real slots `changed`, are `candidates` (their
        changes lie in one layer) whose every test row's argmax the
        certificate proves unmoved: ``sum |D| coef (1 + _CERT_SLACK) <= 1``
        over the changed slots."""
        with np.errstate(invalid="ignore", over="ignore"):
            terms = np.abs(values - self.flat[touched]) * self.coef[touched]
        terms[~changed] = 0.0
        return candidates & (terms.sum(axis=(1, 2)) * (1 + _CERT_SLACK) <= 1)

    def score(self, touched: np.ndarray, outs: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Total deviations and test errors of K readbacks, the blocks at
        `touched` reading each of `outs`, of shape (K, len(touched), 16), in
        order.

        A readback's total deviation adds its blocks' deviations from the
        fault-free ones left to right (see :func:`_in_order_sum`).  All K
        decode and compare with the kept weights in one pass.  Those that
        change no weight take the fault-free error.  Those that change
        weights of one layer only are candidates for the certificate (see
        the class docstring), and every candidate whose change it bounds
        takes the fault-free error.  The rest run inference, each from its
        own first changed layer.
        """
        scale = None if self.scale is None else self.scale[touched, 0]
        totals = _in_order_sum(deviation_words(self.blocks[touched], outs, self.layout.precision,
                                               scale))
        values = self._decode(touched, outs)
        kept = self.flat[touched]
        changed = (values.view(np.uint64) != kept.view(np.uint64)) & self.real[touched]
        rows = changed.any(axis=2)
        layer = self.block_layer[touched]
        n_layers = len(self.biases)
        first = np.where(rows, layer, n_layers).min(axis=1, initial=n_layers)
        last = np.where(rows, layer, -1).max(axis=1, initial=-1)
        infer = last >= 0
        single = first == last
        if single.any():
            infer &= ~self._certified(touched, values, changed, single)
        errs = [self.fault_free] * len(outs)
        for k in np.flatnonzero(infer).tolist():
            start = int(first[k])
            self.flat[touched] = values[k]
            try:
                errs[k] = self._error(_forward(self.weights, self.biases, self.acts[start],
                                               self.work, start))
            finally:
                self.flat[touched] = kept
        return totals, errs


def ber_sweep(model: MlpModel | QuantizedModel, dataset,
              schemes: Sequence[Scheme], ber_list: Sequence[float], trials: int,
              base_seed: int, threads: int = 1) -> list[SweepResult]:
    """Run trials for every scheme x BER with paired fault maps.

    Every trial runs in the calling thread, in (ber, trial) order, and its
    results are reduced in (scheme, ber, trial) order, so output is
    order-deterministic.  A stuck cell is SA1 with probability
    :data:`craft.memory.DEFAULT_SA1_FRACTION`.  `threads` must be 1, every
    BER in [0, 1] and every scheme name distinct (checked before the first
    trial), and the run may hold at most :data:`MAX_TRIAL_RESULTS` results.
    Each fault map's scheme readbacks are scored, total deviation and test
    error, in one batched call; a readback whose weights equal the
    fault-free ones takes the fault-free error without another inference
    (see :class:`_Readbacks`).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if threads != 1:
        raise ValueError(f"ber_sweep runs every trial in the calling thread; "
                         f"threads must be 1, got {threads}")
    for ber in ber_list:
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"ber must be in [0, 1], got {ber}")
    if len({s.name for s in schemes}) < len(schemes):
        raise ValueError(f"repeated scheme in {','.join(s.name for s in schemes)}")
    _check_trial_results(len(schemes) * len(ber_list) * trials,
                         f"{len(schemes)} schemes x {len(ber_list)} BER points x {trials} trials")
    blocks, layout = flatten_model(model)
    region = layout.n_blocks * PAYLOAD_BITS
    readbacks = _Readbacks(blocks, layout, dataset)
    errs = np.empty((len(schemes), len(ber_list), trials))
    deltas = np.empty_like(errs)
    for bi, ber in enumerate(ber_list):
        for t in range(trials):
            fmap = generate_fault_map(region, ber, DEFAULT_SA1_FRACTION, trial_seed(base_seed, t))
            touched, outs = _apply_schemes(blocks, layout, schemes, fmap)
            deltas[:, bi, t], errs[:, bi, t] = readbacks.score(touched, outs)

    results = []
    for si, scheme in enumerate(schemes):
        records = tuple(TrialRecord(float(ber), t, float(errs[si, bi, t]),
                                    float(deltas[si, bi, t]))
                        for bi, ber in enumerate(ber_list) for t in range(trials))
        points = tuple(BerPoint(float(ber), float(errs[si, bi].mean()),
                                float(errs[si, bi].std(ddof=0)), float(deltas[si, bi].mean()))
                       for bi, ber in enumerate(ber_list))
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

    Each trial's stuck words are drawn once, as a fault map over the words
    (see :func:`craft.memory.generate_fault_map`), and serve every
    position.  The draw is scattered into weight-sized units, a 1 in the
    mask and the stuck value in the stuck array at each stuck word; read as
    (n_blocks, 16) uint32 words, they are position 0's (mask, stuck) words,
    bit 0 of an fp32 word or bit 8*(i % 4) of the word that holds u8 byte
    i, and position p's are them shifted left by p.  A trial builds every
    position's readback at once and scores them, total deviation and test
    error, in one batched call; a readback whose weights equal the
    fault-free ones takes the fault-free error without another inference
    (see :class:`_Readbacks`).  The run may hold at most
    :data:`MAX_TRIAL_RESULTS` results.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    blocks, layout = flatten_model(model)
    word_bits = layout.precision.word_bits
    _check_trial_results(word_bits * trials, f"{word_bits} bit positions x {trials} trials")
    n_words = layout.n_blocks * PAYLOAD_BITS // word_bits
    readbacks = _Readbacks(blocks, layout, dataset)
    shifts = np.arange(word_bits, dtype=np.uint32)[:, None, None]
    errs = np.empty((word_bits, trials))
    deltas = np.empty((word_bits, trials))
    for t in range(trials):
        g = generate_fault_map(n_words, ber, DEFAULT_SA1_FRACTION, trial_seed(base_seed, t))
        units = np.zeros((2, n_words), dtype=f"<u{word_bits // 8}")
        units[0, g.bit_indices] = 1
        units[1, g.bit_indices] = g.stuck_values
        mask0, stuck0 = units.view("<u4").reshape(2, layout.n_blocks, WORDS_PER_BLOCK)
        touched = np.flatnonzero(mask0.any(axis=1))
        outs = apply_stuck(blocks[touched], mask0[touched] << shifts, stuck0[touched] << shifts)
        deltas[:, t], errs[:, t] = readbacks.score(touched, outs)
    points = tuple(CriticalityPoint(p, float(errs[p].mean()), float(errs[p].std(ddof=0)),
                                    float(deltas[p].mean()))
                   for p in range(word_bits))
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


def _write_rows(fh, header: str, rows) -> None:
    """Write `header`, then each row's values joined by ``,`` (``str`` of a float is ``repr``)."""
    fh.write(header + "\n")
    fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_raw_csv(results: Sequence[SweepResult], path) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "scheme,ber,trial,classification_error,total_delta",
                    ((res.scheme, r.ber, r.trial, r.classification_error, r.total_delta)
                     for res in results for r in res.records))


def write_summary_csv(results: Sequence[SweepResult], path) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "scheme,ber,mean_error,std_error,mean_delta",
                    ((res.scheme, p.ber, p.mean_error, p.std_error, p.mean_delta)
                     for res in results for p in res.ber_points))


def write_criticality_csv(result: CriticalityResult, path) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "position,mean_error,std_error,mean_delta",
                    ((p.position, p.mean_error, p.std_error, p.mean_delta) for p in result.points))
