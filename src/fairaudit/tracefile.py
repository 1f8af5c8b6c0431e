"""The trace of an audit: every state of its attack, spilled to disk, and the JSONL read back from it.

``fairaudit audit`` with ``trace_output`` writes one JSON line per audited
sample and step.  The lines are sample-major, but the attack produces the
states step by step, one row block at a time, so the states go to a spill
file as they are made and the JSONL is written from it afterwards.  The
process holds no more of the trace than one group of samples.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .dataset import _Stream, atomic_write_text

# the most bytes of states, losses and penalties read back from the spill for one group of samples
GROUP_BYTES = 128 * 1024
# the most JSONL lines joined into one string: 64 lines of 40 features take about 60 KB, below glibc's 128 KB
# trim threshold, so the text's memory is reused; whole samples of 501 such lines (460 KB) were faulted in anew
# each time, 196k minor faults and 2.5 MB of peak RSS on a 1000x40 traced audit of 500 steps
CHUNK_LINES = 64


def _pwrite(fd: int, values: np.ndarray, offset: int) -> None:
    """Write the C-contiguous array ``values`` to ``fd`` at byte ``offset``."""
    done = os.pwrite(fd, values, offset)
    while done < values.nbytes:  # a short write, which a full disk or a write past 2 GB can give
        done += os.pwrite(fd, memoryview(values).cast("B")[done:], offset + done)


def _pread(fd: int, out: np.ndarray, offset: int) -> np.ndarray:
    """Fill the C-contiguous array ``out`` from ``fd`` at byte ``offset``, and return it."""
    done = os.preadv(fd, [out], offset)
    while done < out.nbytes:  # a short read, which a read past 2 GB or the file's end gives
        more = os.preadv(fd, [memoryview(out).cast("B")[done:]], offset + done)
        if not more:
            raise OSError("audit: the trace's spill file ended early")
        done += more
    return out


class TraceSpill:
    """A traced audit's states, losses and penalties, in a file with no name in the trace output's directory.

    The file holds float64 values: the state of all ``n`` rows at each of the ``steps`` steps,
    step-major as ``(steps, n, d)``, then the loss and the penalty of each of the ``m`` kept rows as
    ``(steps, m, 2)``, so it takes at most ``steps * n * (d + 2) * 8`` bytes.  It has no name from the start
    (or loses it at once where the file system cannot make it so), so no exit leaves it behind.
    """

    def __init__(self, trace_output: str, steps: int, n: int, d: int):
        self.file = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(trace_output)))
        self.fd, self.steps, self.n, self.d = self.file.fileno(), steps, n, d

    def close(self) -> None:
        self.file.close()

    def write_state(self, k: int, x: np.ndarray, rows: slice) -> None:
        """The audit's ``on_step``: the state of the row block ``rows`` after ``k`` steps."""
        _pwrite(self.fd, x, (k * self.n + rows.start) * self.d * 8)

    def _scores(self, k: int, j: int) -> int:
        """The byte offset of kept row ``j``'s loss and penalty at step ``k``."""
        return (self.steps * self.n * self.d + (k * len(self.index) + j) * 2) * 8

    def record(self, model, metric, cfg, index: np.ndarray, x0: np.ndarray, y: np.ndarray) -> None:
        """Spill the losses and penalties of the kept rows ``index`` of the attack from ``x0`` with labels ``y``.

        Each step's values are computed over all kept rows at once, as ``attack.AttackTrace.record``
        does, so they have its bits; per-sample histories would round differently.
        """
        self.index = index
        dropped = len(index) < self.n
        if dropped:  # copies only to drop rows
            x0, y = x0[index], y[index]
        state, scores = np.empty((self.n, self.d)), np.empty((len(index), 2))
        for k in range(self.steps):
            xk = _pread(self.fd, state, k * self.n * self.d * 8)
            if dropped:
                xk = xk[index]
            scores[:, 0] = model.loss(xk, y)
            scores[:, 1] = cfg.lam * metric.distance_sq(xk, x0)
            _pwrite(self.fd, scores, self._scores(k, 0))

    def groups(self):
        """Yield ``(samples, states, losses, penalties)`` for the recorded kept rows, a group at a time.

        A group is the kept rows among a span of rows whose values take about ``GROUP_BYTES``;
        ``states`` is ``(steps, g, d)`` and the others ``(steps, g)`` for its ``g`` samples.  Every group
        is read into the same buffers, so the arrays of one group are valid only until the next.
        """
        index, span = self.index, max(1, GROUP_BYTES // (self.steps * (self.d + 2) * 8))
        states_buffer = np.empty((self.steps, span, self.d))
        scores_buffer = np.empty((self.steps, span, 2))
        for lo in range(0, self.n, span):
            j0, j1 = np.searchsorted(index, [lo, lo + span]).tolist()
            if j0 == j1:
                continue
            samples = index[j0:j1]
            rows, g = int(samples[-1]) + 1 - lo, j1 - j0
            for k in range(self.steps):
                _pread(self.fd, states_buffer[k, :rows], (k * self.n + lo) * self.d * 8)
                _pread(self.fd, scores_buffer[k, :g], self._scores(k, j0))
            states = states_buffer[:, :rows] if g == rows else states_buffer[:, samples - lo]
            yield samples, states, scores_buffer[:, :g, 0], scores_buffer[:, :g, 1]

    def write_jsonl(self, path) -> None:
        """Write the JSONL trace of the recorded kept rows: one record per sample and step, sample-major.

        Each record is one line of JSON with sorted keys and ``json``'s default separators, spelled out
        directly and joined ``CHUNK_LINES`` lines at a time while the file is written: floats and lists of
        floats use ``repr``, which matches ``json`` for finite values only, so every value must be finite.
        """

        def chunks():
            for group, states, losses, penalties in self.groups():
                if not all(np.all(np.isfinite(a)) for a in (states, losses, penalties)):
                    raise ValueError("audit: trace holds non-finite values")
                for j, sample in enumerate(group.tolist()):
                    for lo in range(0, self.steps, CHUNK_LINES):
                        steps = slice(lo, lo + CHUNK_LINES)
                        rows = zip(losses[steps, j].tolist(), penalties[steps, j].tolist(), states[steps, j].tolist())
                        yield "".join(
                            [
                                f'{{"loss": {loss!r}, "penalty": {penalty!r}, "sample": {sample}, "step": {k}, "x": {x!r}}}\n'
                                for k, (loss, penalty, x) in enumerate(rows, start=lo)
                            ]
                        )

        atomic_write_text(path, _Stream(len(self.index) * -(-self.steps // CHUNK_LINES), chunks()))
