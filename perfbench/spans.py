"""Span tracer installed from outside the library.

Wrappers are set on module attributes, class methods and on the coefficient
callables each `CoefficientSequence` receives, so the library is measured at
the boundaries of its public functions without a line of it changing.  A span
records its name, start, end, parent span and op id.  Spans live in compact
columns in memory and are written out once, after the traced pass.

Self time: a span's duration minus the time its child spans cover.  The
`BandMatrix @` spans are kept for counting and do not report on their own:
their self time is added to the nearest enclosing reported span, so the
products inside `verify_algebra` count as verify time.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from oracle import Q_FAMILIES

# Module attributes wrapped as reported spans, by layer.  Every compute
# function the ops and the CLI call is listed, so that time outside them
# under cli.main is the CLI's own.
REPORTED = {
    "recurrence": ["make_sequence"],
    "oscillator": ["build_operators", "verify_algebra"],
    "classifier": ["classify", "difference_table"],
    "coherent": ["make_state", "eigen_residual", "uncertainty", "state_to_dict"],
    "qseries": ["basic_hypergeometric", "normalization_series_closed"],
    "fibonacci": [
        "fib", "fib_iterative", "fib_via_chebyshev", "ismail_fib", "ismail_fib_values",
        "nu_moments", "filbert_matrix", "exact_inverse", "exact_matmul",
        "is_integer_matrix", "berg_orthogonality",
    ],
    "cli": ["main"],
}
COEFF_A = "recurrence.CoefficientSequence.a"
COEFF_B = "recurrence.CoefficientSequence.b"
MATMUL = "oscillator.BandMatrix.__matmul__"


def band_madds(a, b) -> int:
    """Multiply-adds of one banded product, computed from band offsets and lengths."""
    dim = a.dim
    total = 0
    for p in a.bands:
        for r in b.bands:
            o = p + r
            if abs(o) < dim:
                total += max(0, dim - max(0, p, o) - max(0, -p, -o))
    return total


class Tracer:
    """Collects spans from wrappers it installs; `uninstall` restores the originals."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.reported: list[bool] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.miss = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.materialized = 0
        self.monic_calls = 0
        self.q_index_total = 0
        self._q_index_keys: set = set()
        self.madds: dict[int, int] = {}
        self.dps: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str, reported: bool) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.reported.append(reported)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.miss.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        # distinct (sequence, index) pairs are counted per op, while the
        # sequences an op touches are alive, so object ids cannot be reused
        self.q_index_total += len(self._q_index_keys)
        self._q_index_keys.clear()
        self.op_id = -1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name, True)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def hook_sequences(self) -> None:
        """Count coefficient materializations of every sequence built from now on.

        Called before the workload builds its inputs, so that sequences made
        at set-up and reused by the traced pass report their misses too.
        """
        cls = self.modules["recurrence"].CoefficientSequence
        init = cls.__init__

        def materializing(fn):
            def wrapped(n):
                self.materialized += 1
                return fn(n)

            return wrapped

        @functools.wraps(init)
        def hooked_init(seq, family_id, params, a_fn, b_fn, *args, **kwargs):
            init(seq, family_id, params, materializing(a_fn), materializing(b_fn), *args, **kwargs)

        self._set(cls, "__init__", hooked_init)

    def install(self) -> None:
        m = self.modules
        for mod_name, attrs in REPORTED.items():
            mod = m[mod_name]
            for attr in attrs:
                self._set(mod, attr, self._wrap(f"{mod_name}.{attr}", getattr(mod, attr)))
        self._install_recurrence(m["recurrence"])
        self._install_matmul(m["oscillator"])
        self._install_nu(m["fibonacci"])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _install_recurrence(self, recurrence) -> None:
        cls = recurrence.CoefficientSequence
        monic = recurrence.little_q_jacobi_monic_coeffs

        @functools.wraps(monic)
        def counted_monic(*args, **kwargs):
            self.monic_calls += 1
            return monic(*args, **kwargs)

        self._set(recurrence, "little_q_jacobi_monic_coeffs", counted_monic)
        for attr, name in (("a", COEFF_A), ("b", COEFF_B)):
            self._set(cls, attr, self._coeff_wrapper(name, getattr(cls, attr)))

    def _coeff_wrapper(self, name: str, fn):
        nid = self._name_id(name, True)

        @functools.wraps(fn)
        def traced(seq, n):
            before = self.materialized
            idx = self._open(nid)
            try:
                return fn(seq, n)
            finally:
                self._close(idx)
                if self.materialized != before:
                    self.miss[idx] = 1
                    if seq.family_id in Q_FAMILIES:
                        self._q_index_keys.add((id(seq), n))

        return traced

    def _install_matmul(self, oscillator) -> None:
        cls = oscillator.BandMatrix
        fn = cls.__matmul__
        nid = self._name_id(MATMUL, False)

        @functools.wraps(fn)
        def traced(a, b):
            idx = self._open(nid)
            try:
                return fn(a, b)
            finally:
                self._close(idx)
                if isinstance(b, cls):
                    self.madds[idx] = band_madds(a, b)

        self._set(cls, "__matmul__", traced)

    def _install_nu(self, fibonacci) -> None:
        nu = fibonacci.nu_moments  # already the reported wrapper

        @functools.wraps(nu)
        def recorded(*args, **kwargs):
            result = nu(*args, **kwargs)
            if result.dps is not None:
                self.dps.append(result.dps)
            return result

        self._set(fibonacci, "nu_moments", recorded)

    # -- analysis ----------------------------------------------------------------

    def columns(self) -> dict:
        """Read-only views of the span columns (no span may be added while they live)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "miss": np.frombuffer(self.miss, dtype=np.int8),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


def _nearest(parent: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self with mark set, else -1.

    All spans climb their parent links together, one level per step, so the
    loop runs at most as many times as spans nest.
    """
    idx = np.arange(len(parent), dtype=parent.dtype)
    out = np.where(mark, idx, parent)
    while True:
        pending = (out >= 0) & ~mark[np.maximum(out, 0)]
        if not pending.any():
            return out
        out[pending] = parent[out[pending]]


def analyse(tracer: Tracer) -> dict:
    """Per-function span counts and self times from the recorded columns."""
    cols = tracer.columns()
    name, parent = cols["name"], cols["parent"]
    n = len(name)
    dur = cols["end"] - cols["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - covered
    reported = np.array(tracer.reported, dtype=bool)[name] if n else np.zeros(0, dtype=bool)
    owner = _nearest(parent, reported)
    rolled = np.bincount(owner[owner >= 0], weights=self_time[owner >= 0], minlength=n)
    ids = {nm: i for i, nm in enumerate(tracer.names)}

    def spans_of(nm: str) -> np.ndarray:
        return name == ids[nm] if nm in ids else np.zeros(n, dtype=bool)

    def self_s(nm: str, extra=None) -> float:
        mask = spans_of(nm) if extra is None else spans_of(nm) & extra
        return float(rolled[mask].sum())

    def count(nm: str) -> int:
        return int(spans_of(nm).sum())

    def count_under(nm: str, ancestor_names) -> int:
        mark = np.zeros(n, dtype=bool)
        for anc in ancestor_names:
            mark |= spans_of(anc)
        # nearest marked strict ancestor: start the search from the parent
        anc = _nearest(parent, mark)
        anc_of_parent = np.where(has_parent, anc[np.maximum(parent, 0)], -1)
        return int((spans_of(nm) & (anc_of_parent >= 0)).sum())

    verify = spans_of("oscillator.verify_algebra")
    madds_under_verify = 0
    if tracer.madds and verify.any():
        anc = _nearest(parent, verify)
        for idx, value in tracer.madds.items():
            if anc[idx] >= 0:
                madds_under_verify += value
    return {
        "self_s": self_s,
        "count": count,
        "count_under": count_under,
        "spans_of": spans_of,
        "miss": cols["miss"].astype(bool),
        "madds_under_verify": madds_under_verify,
    }
