"""Deferred load spans: ``SweepLoads`` commits a cohort's spans when a
timeline is next read, and must equal eager per-cohort adds bit for bit.

:class:`EagerLoads` is the day's timelines as they were committed
before the log existed: one ``np.add.at`` per timeline per cohort,
through a verbatim copy of ``core.sweep._span_add``.  The property
interleaves cohort commits with what reads or writes a timeline
mid-day — fault-handler span writes, healing row growth, admission
reads, a reader of one timeline — and compares every read and the
final arrays byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import SweepLoads

HOURS = 24


def _span_add(target: np.ndarray, rows, ends, start: int, values) -> None:
    """``target[rows[i], start:ends[i]+1] += values[i]`` for all ``i``.

    Flattens every span into one ``np.add.at`` call.  Increments apply
    in array order, i.e. plan order — the same order the per-session
    slice adds would have used, so float accumulation is bit-identical.
    """
    rows = np.asarray(rows, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - start + 1
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    cols = start + np.arange(int(lengths.sum()), dtype=np.int64) - offsets
    flat = np.repeat(rows, lengths) * target.shape[-1] + cols
    if np.isscalar(values):
        np.add.at(target.reshape(-1), flat, values)
    else:
        np.add.at(target.reshape(-1), flat,
                  np.repeat(np.asarray(values, dtype=np.float64), lengths))


class EagerLoads:
    """The reference: every commit lands in the arrays at once."""

    def __init__(self, ids, hours: int, occupancy: bool) -> None:
        self.ids = tuple(ids)
        self.counts = np.zeros((len(ids), hours + 2))
        self.rates = np.zeros((len(ids), hours + 2))
        self.cloud_rate = np.zeros(hours + 2)
        self.cloud_count = np.zeros(hours + 2) if occupancy else None

    def commit(self, start, rows, ends, rates, cloud_ends, cloud_rates):
        if rows:
            _span_add(self.counts, rows, ends, start, 1)
            _span_add(self.rates, rows, ends, start, rates)
        if cloud_ends:
            zeros = np.zeros(len(cloud_ends), dtype=np.int64)
            _span_add(self.cloud_rate, zeros, cloud_ends, start,
                      cloud_rates)
            if self.cloud_count is not None:
                _span_add(self.cloud_count, zeros, cloud_ends, start, 1)

    def ensure_row(self, supernode_id: int) -> None:
        if supernode_id in self.ids:
            return
        self.ids = self.ids + (supernode_id,)
        zero = np.zeros((1, self.counts.shape[1]))
        self.counts = np.vstack([self.counts, zero])
        self.rates = np.vstack([self.rates, zero])


#: Stream rates whose sums round differently in another order.
RATES = st.sampled_from([0.1, 0.3, 1.7, 3.3, 12.5, 1e-3, 7.0 / 3.0])
SUBCYCLE = st.integers(1, HOURS)
SPAN = st.tuples(SUBCYCLE, st.integers(1, HOURS))  # start, length

commit_op = st.tuples(
    st.just("commit"), SUBCYCLE,
    st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, HOURS),
                       RATES), max_size=12),
    st.lists(st.tuples(st.integers(1, HOURS), RATES), max_size=8))
handler_op = st.tuples(st.just("handler"), st.integers(0, 10 ** 6), SPAN,
                       RATES, st.booleans())
grow_op = st.tuples(st.just("grow"), st.integers(100, 110))
admit_op = st.tuples(st.just("admit"), SUBCYCLE)
#: A day-end reader takes one timeline (credits read ``rates`` only).
read_op = st.tuples(st.just("read"), st.sampled_from(
    ["counts", "rates", "cloud_rate", "cloud_count"]))


def _same(live: SweepLoads, eager: EagerLoads,
          names=("counts", "rates", "cloud_rate", "cloud_count")) -> None:
    for name in names:
        got, want = getattr(live, name), getattr(eager, name)
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes(), name


def _end(start: int, length: int) -> int:
    return min(HOURS, start + length - 1)


@given(live_rows=st.integers(1, 6), occupancy=st.booleans(),
       ops=st.lists(commit_op | handler_op | grow_op | admit_op
                    | read_op, min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_property_deferred_spans_equal_eager_adds(live_rows, occupancy, ops):
    ids = list(range(live_rows))
    live = SweepLoads(ids, HOURS, occupancy=occupancy)
    eager = EagerLoads(ids, HOURS, occupancy)
    for op in ops:
        kind = op[0]
        if kind == "commit":
            _, start, fog, cloud = op
            rows = [pick % len(eager.ids) for pick, _, _ in fog]
            ends = [_end(start, length) for _, length, _ in fog]
            rates = [rate for _, _, rate in fog]
            cloud_ends = [_end(start, length) for length, _ in cloud]
            cloud_rates = [rate for _, rate in cloud]
            for loads in (live, eager):
                loads.commit(start, rows, ends, rates, cloud_ends,
                             cloud_rates)
        elif kind == "handler":
            # A session moves: its old row loses the rest of its span,
            # which lands on another row or on the cloud line.
            _, pick, (start, length), rate, to_cloud = op
            row = pick % len(eager.ids)
            span = slice(start, _end(start, length) + 1)
            for loads in (live, eager):
                counts, rates = loads.counts, loads.rates
                counts[row, span] -= 1
                rates[row, span] -= rate
                if to_cloud:
                    loads.cloud_rate[span] += rate
                else:
                    counts[-1, span] += 1
                    rates[-1, span] += rate
            _same(live, eager)
        elif kind == "grow":
            for loads in (live, eager):
                loads.ensure_row(op[1])
            assert live.ids == eager.ids
        elif kind == "read":
            _same(live, eager, (op[1],))
        elif occupancy:
            assert live.cloud_count[op[1]] == eager.cloud_count[op[1]]
    _same(live, eager)
