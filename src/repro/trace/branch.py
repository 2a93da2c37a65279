"""A gshare branch predictor.

Classic two-level prediction: the program counter is XOR-folded with a
global history register to index a table of 2-bit saturating counters.
Predictable patterns (loop back-edges, repeating sequences) train quickly;
data-dependent random branches converge to ~50 % accuracy — precisely the
behavioural spread the ``branchy`` kernels exploit to move the
``trace.branch_mispredicts`` metric across its intensity range.

:meth:`GsharePredictor.update_batch` resolves a whole branch column at
once and is bit-exact against a sequence of :meth:`GsharePredictor.update`
calls: the global-history sequence depends only on the incoming taken
bits (computable with shifts), and the per-index 2-bit counter streams
are replayed with run-length compression plus closed-form saturating
updates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class GsharePredictor:
    """Gshare with 2-bit saturating counters."""

    def __init__(self, table_bits: int = 12, history_bits: int = 8):
        if not 1 <= table_bits <= 24:
            raise ConfigError("table_bits must be in [1, 24]")
        if not 0 <= history_bits <= table_bits:
            raise ConfigError("history_bits must be in [0, table_bits]")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        # 2-bit counters initialized weakly taken.
        self._table = bytearray([2] * (1 << table_bits))
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ (self._history & self._history_mask)) & self._mask

    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the branch at ``pc``."""
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, train on the outcome, and report correctness."""
        index = self._index(pc)
        prediction = self._table[index] >= 2
        if taken and self._table[index] < 3:
            self._table[index] += 1
        elif not taken and self._table[index] > 0:
            self._table[index] -= 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        self.predictions += 1
        correct = prediction == taken
        if not correct:
            self.mispredictions += 1
        return correct

    def update_batch(self, pcs, taken) -> np.ndarray:
        """Vectorized :meth:`update` over branch columns.

        Returns the per-branch correctness flags and leaves the predictor
        (table, history, stats) in exactly the state a scalar replay of
        the same sequence would — the equivalence the hypothesis parity
        tests pin down.

        The trick: the history register sequence never reads the table,
        so every branch's table index is computable up front from the
        initial history and the taken bits.  Branches are then grouped by
        index (stable sort keeps trace order within a group) and split
        into same-direction runs; a saturating 2-bit counter moves
        monotonically through a run, so each run collapses to one
        closed-form update while per-branch predictions are recovered
        from the run's starting counter and the offset within the run.
        """
        pcs = np.asarray(pcs, dtype=np.int64)
        taken = np.asarray(taken, dtype=np.bool_)
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.bool_)
        history_bits = self.history_bits
        taken_bits = taken.astype(np.int64)

        # History before branch j, bit k, is the outcome of branch
        # j-1-k — or an initial-history bit when j-1-k < 0.  Lay both
        # out in one extended bit array and OR shifted windows of it.
        histories = np.zeros(n, dtype=np.int64)
        if history_bits:
            extended = np.empty(history_bits + n, dtype=np.int64)
            for k in range(history_bits):
                extended[history_bits - 1 - k] = (self._history >> k) & 1
            extended[history_bits:] = taken_bits
            for k in range(history_bits):
                start = history_bits - 1 - k
                histories |= extended[start : start + n] << k
        indices = ((pcs >> 2) ^ histories) & self._mask

        order = np.argsort(indices, kind="stable")
        sorted_index = indices[order]
        sorted_taken = taken[order]
        new_group = np.empty(n, dtype=np.bool_)
        new_group[0] = True
        new_group[1:] = sorted_index[1:] != sorted_index[:-1]
        new_run = new_group.copy()
        new_run[1:] |= sorted_taken[1:] != sorted_taken[:-1]
        run_ids = np.cumsum(new_run) - 1
        run_starts = np.flatnonzero(new_run)
        n_runs = len(run_starts)
        run_lengths = np.empty(n_runs, dtype=np.int64)
        run_lengths[:-1] = run_starts[1:] - run_starts[:-1]
        run_lengths[-1] = n - run_starts[-1]
        run_index = sorted_index[run_starts]
        run_taken = sorted_taken[run_starts]

        # Group structure over runs: all runs sharing a table index.
        group_first_run = np.flatnonzero(new_group[run_starts])
        n_groups = len(group_first_run)
        runs_per_group = np.empty(n_groups, dtype=np.int64)
        runs_per_group[:-1] = group_first_run[1:] - group_first_run[:-1]
        runs_per_group[-1] = n_runs - group_first_run[-1]

        counters = np.frombuffer(self._table, dtype=np.uint8).astype(np.int64)
        run_start_counter = np.empty(n_runs, dtype=np.int64)
        for round_number in range(int(runs_per_group.max())):
            active = runs_per_group > round_number
            run_pos = group_first_run[active] + round_number
            table_index = run_index[run_pos]
            before = counters[table_index]
            run_start_counter[run_pos] = before
            lengths = run_lengths[run_pos]
            counters[table_index] = np.where(
                run_taken[run_pos],
                np.minimum(3, before + lengths),
                np.maximum(0, before - lengths),
            )
        self._table[:] = counters.astype(np.uint8).tobytes()

        # Prediction for the j-th access of a run: the counter has seen
        # j same-direction updates since the run started.
        offsets = np.arange(n, dtype=np.int64) - run_starts[run_ids]
        start_counter = run_start_counter[run_ids]
        counter_before = np.where(
            sorted_taken,
            np.minimum(3, start_counter + offsets),
            np.maximum(0, start_counter - offsets),
        )
        correct_sorted = (counter_before >= 2) == sorted_taken
        correct = np.empty(n, dtype=np.bool_)
        correct[order] = correct_sorted

        if history_bits:
            history = self._history if n < history_bits else 0
            for bit in taken_bits[max(0, n - history_bits) :].tolist():
                history = (history << 1) | bit
            self._history = history & self._history_mask
        self.predictions += n
        self.mispredictions += int(n - correct.sum())
        return correct

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def reset_stats(self) -> None:
        self.predictions = 0
        self.mispredictions = 0
