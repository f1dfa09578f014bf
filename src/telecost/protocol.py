"""Two-party teleportation engine driven by one schedule table per protocol.

The tables, their trace events and the batch bounds live in `schedule`,
which needs no NumPy; this module interprets them.

One interpreter runs a table once over a stack of registers, shape
(runs, 2, 2, 2), through the statevector gate kernels (apply_h/x/z,
apply_cnot). One kernel, `_correct`, applies Bob's gates to every run's
qubit under all four outcomes, one call per gate and outcome. Two stack
functions take UnknownQubits or checked amplitude rows such as
`haar_sources` draws and return columns: `verify_stack`, every named
register and all four branches from one run of the schedule; and
`pair_response`, all `noise` needs for a mixed channel: the schedule is
linear, so it runs the pair's four basis states under every input, as one
(inputs, 4, 4) array, as the entangled-input probe stacks the held-back
qubit's two values. Only the stacks of one build objects per run:
`run_protocol` is verify_stack of one and one measure_sample draw, whose
branch its trace keeps, and the checkpoints and `enumerate_protocol` read
verify_stack of one. `compare` evolves no register: every outcome has Born
probability 1/4 and every corrected branch returns the input, so it samples
outcomes as floor(4u) and noisy fidelity in closed form, and verify_stack,
measure_sample and `pair_response` are its test oracle.
`run_batch`, the one seeded batch runner, yields chunks of at most
BATCH_CHUNK runs as (runs, streams): run indices and the chunk's streams,
kinds by runs, NumPy's SeedSequence->PCG64 bit for bit on uint64 limbs,
which hand out a column of random() draws per step, or k at once by
jump-ahead. The per-state path this replaced is the bit-for-bit reference
in tests/per_state_reference.py.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cost import CostLedger
from .kinds import ALICE, BOB, ProtocolKind, Purpose
from .schedule import (
    BATCH_CHUNK,
    MAX_RUNS,
    SCHEDULES,
    _EPR_PAIR,
    _OUTCOMES,
    CorrectionApplied,
    Measured,
    MessageSent,
    Schedule,
    TraceStep,
)
from .statevector import (
    BranchOutcome,
    StateVector,
    apply_cnot,
    apply_h,
    apply_x,
    apply_z,
    bell_pair,
    fidelity_pure,
    measure_sample,
)


@dataclass(frozen=True)
class UnknownQubit:
    """The state to be teleported, alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        _unit_rows(np.array([[self.alpha, self.beta]]))

    @classmethod
    def haar(cls, rng: np.random.Generator) -> UnknownQubit:
        """Haar-uniform input from two rng.random() draws, theta's first, as
        a stack of one of haar_sources; random() is the only draw it needs."""
        return cls(*haar_sources(np.array([[rng.random(), rng.random()]]))[0].tolist())

    def to_statevector(self) -> StateVector:
        return StateVector(1, np.array([self.alpha, self.beta], dtype=complex))


@dataclass(frozen=True)
class ProtocolTrace:
    """Complete record of one teleportation run."""

    kind: ProtocolKind
    steps: list[TraceStep]
    final_bob_state: StateVector
    fidelity_achieved: float
    ledger: CostLedger


# ---------------------------------------------------------------------------
# stacked schedule interpreter
# ---------------------------------------------------------------------------

# the stacked gate kernels by schedule name; a module dict, so the
# benchmark tracer can rebind them
_GATES = {"H": apply_h, "X": apply_x, "Z": apply_z, "CNOT": apply_cnot}


def haar_sources(u: np.ndarray) -> np.ndarray:
    """Haar-uniform inputs as read-only (n, 2) amplitude rows, row i from
    two random() draws u[i]: cos(theta) uniform on [-1, 1] and phase on
    [0, 2pi), with Generator.uniform's arithmetic."""
    theta = np.arccos(-1.0 + 2.0 * u[:, 0])
    phi = 2.0 * np.pi * u[:, 1]
    rows = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1)
    rows.flags.writeable = False
    return _unit_rows(rows)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """rows, once every one is a 2-vector of norm 1 within 1e-12, checked as
    one array; an UnknownQubit is one such row."""
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"input rows must have shape (n, 2), got {rows.shape}")
    norms = np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2
    if not np.all(np.abs(norms - 1.0) <= 1e-12):  # also rejects NaN and infinite amplitudes
        raise ValueError("|alpha|^2 + |beta|^2 must be 1 in every input row")
    return rows


def _sources(psis: list[UnknownQubit] | np.ndarray) -> np.ndarray:
    """The inputs' amplitudes, one row each: UnknownQubits, each checked as a
    row when built, or rows such as haar_sources', checked here."""
    if isinstance(psis, np.ndarray):
        return _unit_rows(psis)
    return np.array([(psi.alpha, psi.beta) for psi in psis], dtype=complex).reshape(-1, 2)


def _evolve(
    schedule: Schedule, sources: np.ndarray, pairs: np.ndarray | None = None
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Run `schedule` once over a stack of registers, row i of
    `sources` (x) a resource pair, up to, not including, Alice's
    measurement. `pairs` holds the pair's four amplitudes, one vector for
    every row or one row per source, and defaults to the Bell pair. Axis 0
    of the stack indexes the runs and axis q + 1 holds qubit q. Returns
    the stack before the measurement and the named stacks along the way."""
    if pairs is None:
        pairs = bell_pair().amps
    t = (sources[:, :, None] * pairs[..., None, :]).reshape(len(sources), 2, 2, 2)
    stacks = {schedule.initial: t}
    for _party, gate, qubits, name in schedule.ops:
        if gate != "transfer":
            t = _GATES[gate](t, *(q + 1 for q in qubits))
        if name is not None:
            stacks[name] = t
    stacks.update(dict.fromkeys(schedule.final, t))
    return t, stacks


def _born_rows(t: np.ndarray) -> np.ndarray:
    """Born probabilities of Alice's two measured qubits, one row per run,
    indexed like _OUTCOMES."""
    return (np.abs(t) ** 2).sum(axis=3).reshape(len(t), 4)


def _correct(t: np.ndarray, probs: np.ndarray, bob_gates: tuple) -> np.ndarray:
    """Bob's qubit of every run i for every outcome k, row 4i + k of one
    (4 runs, 2) array: the stack where Alice reads k, over sqrt(probs[i, k])
    (or probs[k], for one row), corrected with bob_gates[k], one kernel call
    per gate and outcome on the rows k::4. Each row still needs normalising."""
    bobs = (t.reshape(len(t), 4, 2) / np.sqrt(probs)[..., None]).reshape(-1, 2)
    for k, gates in enumerate(bob_gates):
        for gate in gates:
            bobs[k::4] = _GATES[gate](bobs[k::4], 1)
    return bobs


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for every pair of real 2-vectors, as (n,1,2) @ (n,2,1)
    matmuls, which sum in the order of the dots inside np.linalg.norm
    and np.vdot for one qubit, bit for bit."""
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def _bob_rows(bobs: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Bob's qubits, one per row, normalised, and the fidelity of each with
    its source, with the arithmetic of np.linalg.norm and fidelity_pure
    row by row, bit for bit: the norm is sqrt(re.re + im.im), the overlap
    <bob|source> is (br.sr + bi.si) + i(br.si - bi.sr), its modulus
    np.hypot, and its square the float ** 2 that fidelity_pure takes (an
    array ** 2 can move the last bit). The rows come back read-only."""
    re, im = bobs.real, bobs.imag
    bobs = bobs / np.sqrt(_dots(re, re) + _dots(im, im)).reshape(-1, 1)
    bobs.flags.writeable = False
    br, bi, sr, si = bobs.real, bobs.imag, sources.real, sources.imag
    moduli = np.hypot(_dots(br, sr) + _dots(bi, si), _dots(br, si) - _dots(bi, sr))
    return bobs, [m ** 2 for m in moduli.tolist()]


def run_protocol(kind: ProtocolKind, psi: UnknownQubit, rng: np.random.Generator) -> ProtocolTrace:
    """One sampled run with its full trace, as verify_stack of one and one
    measure_sample of rng.random(): the schedule's steps, then Alice's
    measurement of outcome k, her announcement and Bob's correction, with
    branch k's qubit and fidelity."""
    schedule = SCHEDULES[kind]
    _, probs, bobs, fidelities = verify_stack(kind, [psi])
    [k] = measure_sample(probs, np.array([rng.random()])).tolist()
    steps = [*schedule.steps, Measured(ALICE, (0, 1), _OUTCOMES[k]),
             MessageSent(ALICE, BOB, _OUTCOMES[k][: schedule.announced], Purpose.TELEPORT),
             CorrectionApplied(BOB, 2, schedule.bob_gates[k])]
    return ProtocolTrace(kind, steps, StateVector._trusted(1, bobs[k]), fidelities[k],
                         CostLedger([schedule.teleport]))


def _checkpoints(kind: ProtocolKind, psi: UnknownQubit) -> dict[str, StateVector]:
    return {name: StateVector._trusted(rows.shape[1].bit_length() - 1, rows[0])
            for name, rows in verify_stack(kind, [psi])[0].items()}


def sqtp_checkpoints(psi: UnknownQubit) -> dict[str, StateVector]:
    """Named register states at each step of the standard protocol, plus
    the resource pair on its own, as a stack of one."""
    return _checkpoints(ProtocolKind.SQTP, psi)


def kak_checkpoints(psi: UnknownQubit) -> dict[str, StateVector]:
    """Named register states at each step of the chained-XOR protocol, as
    a stack of one."""
    return _checkpoints(ProtocolKind.KAK, psi)


def pair_response(kind: ProtocolKind, psis: list[UnknownQubit] | np.ndarray) -> np.ndarray:
    """One (n, 4, 4) array, a[i, k, j] = <psi_i| Bob's corrected qubit for
    outcome k>, unnormalised, when the resource pair is the basis pair |j>:
    each input's four pairs are rows of one stack of 4 x len(psis), and
    probabilities of 1 leave the residuals as they are. The schedule is
    linear, so through a 2-qubit channel rho Bob holds
    sum_jl rho[j, l] b[k, j] b[k, l]^dagger for outcome k, and input i's
    teleport fidelity is sum_k a[i, k]^T rho conj(a[i, k])."""
    schedule, sources = SCHEDULES[kind], _sources(psis)
    n = len(sources)
    pairs = np.tile(np.eye(4, dtype=complex), (n, 1))
    t, _ = _evolve(schedule, np.repeat(sources, 4, axis=0), pairs)
    bobs = _correct(t, np.ones(4), schedule.bob_gates)
    return (bobs.reshape(n, 4, 4, 2) @ sources.conj()[:, None, :, None])[..., 0].transpose(0, 2, 1)


@dataclass(frozen=True)
class ProtocolBranch:
    """One measurement branch of a protocol with Bob's corrected qubit."""

    outcome: BranchOutcome
    bob_state: StateVector
    fidelity: float


def verify_stack(kind: ProtocolKind, psis: list[UnknownQubit] | np.ndarray
                 ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, list[float]]:
    """Every input's named registers, one (n, 2**qubits) array per name,
    SQTP's with the pair alone as _EPR_PAIR, and its four branches from the
    same schedule run: Born probabilities (n, 4) indexed like _OUTCOMES, and
    Bob's corrected qubits, read-only rows 4i + k of (4n, 2), and fidelities."""
    schedule, sources = SCHEDULES[kind], _sources(psis)
    t, stacks = _evolve(schedule, sources)
    named = {name: s.reshape(len(sources), 2 ** (s.ndim - 1)) for name, s in stacks.items()}
    if kind is ProtocolKind.SQTP:
        named = {_EPR_PAIR: np.broadcast_to(bell_pair().amps, (len(sources), 4)), **named}
    probs = _born_rows(t)
    bobs = _correct(t, probs, schedule.bob_gates)
    return (named, probs, *_bob_rows(bobs, np.repeat(sources, 4, axis=0)))


def enumerate_protocol(kind: ProtocolKind, psi: UnknownQubit) -> list[ProtocolBranch]:
    """All four measurement branches of one input, as a stack of one."""
    _, probs, bobs, fidelities = verify_stack(kind, [psi])
    return [ProtocolBranch(BranchOutcome(bits, pk), StateVector._trusted(1, bob), fidelity)
            for bits, pk, bob, fidelity in zip(_OUTCOMES, probs[0].tolist(), bobs, fidelities)]


# ---------------------------------------------------------------------------
# entangled-input probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntangledBranch:
    outcome_bits: str
    probability: float
    fidelity_corrected: float
    fidelity_best: float


@dataclass(frozen=True)
class EntangledInputReport:
    """Per-branch outcome of feeding half of a 2-qubit state through KAK.

    fidelity_corrected uses the one-bit table as prescribed; fidelity_best
    takes the better of both one-bit corrections, which is the most
    charitable reading of what Bob could do with the transmitted bit.
    """

    branches: tuple[EntangledBranch, ...]

    @property
    def min_branch_fidelity(self) -> float:
        return min(b.fidelity_best for b in self.branches)


def kak_entangled_input_demo(joint: StateVector) -> EntangledInputReport:
    """Feed the second qubit of `joint` through the chained-XOR protocol
    while holding the first back, and compare the resulting
    (holdout, Bob) joint state against the original on every branch.

    The schedule is linear, so the holdout's two values are the rows of a
    KAK stack: row h carries the fed qubit's amplitudes where the holdout
    reads h. Alice's outcome probabilities sum over the rows, and the
    joint state of outcome k is its rows of Bob's qubit side by side.
    """
    if joint.n_qubits != 2:
        raise ValueError(f"joint input must be 2 qubits, got {joint.n_qubits}")
    schedule = SCHEDULES[ProtocolKind.KAK]
    t, _ = _evolve(schedule, joint.amps.reshape(2, 2))
    probs = _born_rows(t).sum(axis=0)
    # each joint vector over its own norm: _bob_rows is bit for bit only on
    # 1-qubit rows, because np.vdot sums a 2-qubit overlap in another order
    fids = {key: [fidelity_pure(StateVector._trusted(2, v / np.linalg.norm(v)), joint)
                  for v in np.hstack(_correct(t, probs, (gates,) * 4).reshape(2, 4, 2))]
            for key, gates in schedule.corrections.items()}
    branches = []
    for k, bits in enumerate(_OUTCOMES):
        row = {key: fid[k] for key, fid in fids.items()}
        prescribed = row[bits[: schedule.announced]]
        branches.append(EntangledBranch(bits, float(probs[k]), prescribed, max(row.values())))
    return EntangledInputReport(tuple(branches))


# ---------------------------------------------------------------------------
# seeded batches
# ---------------------------------------------------------------------------

# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_M32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mul128(hi: np.ndarray, lo: np.ndarray, m_hi: np.ndarray,
            m_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * (m_hi, m_lo) mod 2**128 on uint64 limb arrays, which wrap
    silently: the high limb of lo * m_lo from 32-bit partial products."""
    a0, a1, b0, b1 = lo & _M32, lo >> _U32, m_lo & _M32, m_lo >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32) + hi * m_lo + lo * m_hi, lo * m_lo


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray,
              m_hi: np.ndarray = _MULT_HI, m_lo: np.ndarray = _MULT_LO) -> tuple[np.ndarray, np.ndarray]:
    """state * m + inc mod 2**128 on limb arrays, then the carry of the low
    limb's sum; m = _PCG_MULT is one PCG64 step."""
    hi, lo_product = _mul128(hi, lo, m_hi, m_lo)
    lo = lo_product + inc_lo
    return hi + inc_hi + (lo < lo_product), lo


@functools.lru_cache(maxsize=32)  # 32k bytes per k, which verify makes up to 2 * BATCH_CHUNK
def _jumps(k: int) -> np.ndarray:
    """Rows hi, lo of G_j = sum_{i<j} M**i and of A_j = M**j mod 2**128, M =
    _PCG_MULT, j = 1..k, read-only: j steps take a state s to A_j s + G_j inc."""
    a = list(itertools.accumulate(range(1, k), lambda x, _: x * _PCG_MULT % 2**128, initial=_PCG_MULT))
    g = [x % 2**128 for x in itertools.accumulate([1, *a[:-1]])]
    limbs = np.array([[x >> s & 2**64 - 1 for x in v] for v in (g, a) for s in (64, 0)], dtype=np.uint64)
    limbs.flags.writeable = False
    return limbs


@dataclass
class _Streams:
    """NumPy's PCG64 streams on uint64 hi/lo limb arrays of their states and
    increments, one stream per entry: a chunk's kinds by its runs, or one."""

    hi: np.ndarray
    lo: np.ndarray
    inc_hi: np.ndarray
    inc_lo: np.ndarray

    def random(self, k: int | None = None) -> np.ndarray:
        """One random() of every stream, float64 of the limbs' shape, or k
        of them, shape (k, *shape), each step's state one jump from here."""
        if k is None:  # every ideal chunk draws its outcomes here; random(1)[0] costs ~30 us more
            self.hi, self.lo = hi, lo = _pcg_step(self.hi, self.lo, self.inc_hi, self.inc_lo)
        else:
            g_hi, g_lo, *a = _jumps(k).reshape(4, k, *[1] * self.hi.ndim)
            hi, lo = _pcg_step(self.hi, self.lo, *_mul128(self.inc_hi, self.inc_lo, g_hi, g_lo), *a)
            self.hi, self.lo = hi[-1], lo[-1]
        x, rot = hi ^ lo, hi >> np.uint64(58)  # XSL-RR output
        return ((x >> rot | x << (np.uint64(64) - rot & np.uint64(63))) >> np.uint64(11)) * 2.0**-53


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The n + 1 values of a SeedSequence hash constant over n hashmix
    calls; call j takes values j and j + 1 as c_in and c_out."""
    return list(itertools.accumulate(range(n), lambda c, _: c * mult & 0xFFFFFFFF, initial=init))


def _hashmix(v: int | np.ndarray, c_in: int | np.ndarray, c_out: int | np.ndarray) -> int | np.ndarray:
    """SeedSequence's hashmix, on Python ints or uint32 arrays alike: no
    NumPy scalar takes part, so none can warn of overflow."""
    x = (v ^ c_in) * c_out & 0xFFFFFFFF
    return x ^ x >> 16


def _streams(seed: int, runs: range | None = None, streams: range = range(1)) -> _Streams:
    """Stream s in streams of every run i in runs, in rows: the PCG64 of
    SeedSequence(seed, spawn_key=(i, s)), bit for bit, or with no runs the
    one stream, shape (1, 1), of SeedSequence(seed). Only the spawn key
    varies, so the pool of the seed's first 4 words, zero-padded, and its 12
    cross-mixes are Python ints, hashed once. Each later word goes once into
    all 4 slots: the seed's past the fourth, then the run index as a row and
    the stream as a column. The 8 output words of generate_state(4, uint64)
    are one (8, streams, runs) hashmix; PCG64 seeds from them as limbs."""
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 128), 32)]

    def mix(x: int | np.ndarray, y: int | np.ndarray) -> int | np.ndarray:
        r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & 0xFFFFFFFF
        return r ^ r >> 16

    hc = _hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 8)
    # SeedSequence(seed).pool equals this pool, but importing numpy.random costs ~15 ms
    pool = [_hashmix(w, hc[j], hc[j + 1]) for j, w in enumerate(words[:4])]
    for j, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        pool[dst] = mix(pool[dst], _hashmix(pool[src], hc[j], hc[j + 1]))
    # calls 16 on, 4 per later word, and the output's 8 take their constants as columns
    pool, hc, out_hc = (np.array(x, dtype=np.uint32).reshape(-1, 1, 1)
                        for x in (pool, hc[16:], _hash_constants(_INIT_B, _MULT_B, 8)))
    spawn_key = [] if runs is None else [np.arange(runs.start, runs.stop, dtype=np.uint32),
                                         np.arange(streams.start, streams.stop, dtype=np.uint32)[:, None]]
    for j, w in enumerate([*words[4:], *spawn_key]):
        pool = mix(pool, _hashmix(w, hc[4 * j:4 * j + 4], hc[4 * j + 1:4 * j + 5]))
    out = _hashmix(np.concatenate([pool, pool]), out_hc[:-1], out_hc[1:])
    a, b, c, d = out[1::2].astype(np.uint64) << _U32 | out[::2]
    # inc = initseq << 1 | 1, then state = (inc + initstate) * _PCG_MULT + inc
    inc_hi, inc_lo = c << np.uint64(1) | d >> np.uint64(63), d << np.uint64(1) | np.uint64(1)
    lo = inc_lo + b
    return _Streams(*_pcg_step(inc_hi + a + (lo < b), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def run_batch(n_runs: int, seed: int, n_streams: int) -> Iterator[tuple[range, _Streams]]:
    """Seeded batch, yielding each chunk of at most BATCH_CHUNK runs as
    (runs, streams). Stream s of run i is NumPy's PCG64 of
    SeedSequence(seed, spawn_key=(i, s)), and row k of `streams`, limbs
    (n_streams, runs), is stream 1 + k of the chunk's runs, a column of
    draws per step, so run i depends neither on n_runs nor on the chunks.
    Stream 0 drew each run's Haar input, which no command needs any more,
    so it is not seeded; numbering from 1 keeps every draw where it was."""
    if not 1 <= n_runs <= MAX_RUNS:
        raise ValueError(f"n_runs must be in 1..{MAX_RUNS}, got {n_runs}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for start in range(0, n_runs, BATCH_CHUNK):
        runs = range(start, min(start + BATCH_CHUNK, n_runs))
        yield runs, _streams(seed, runs, range(1, 1 + n_streams))
