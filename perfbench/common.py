"""Shared pieces: latency statistics, the server handle, host fingerprint."""

from __future__ import annotations

import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for databases, span files and result files; inside the
#: checkout and ignored by git.
WORK = os.path.join(ROOT, ".perfbench-work")


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- statistics -----------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Window:
    """What one timed window measured, per operation class.

    Each sample is ``(end time, latency, rows)``: seconds, and the
    result rows the operation delivered.  The window runs from
    :meth:`open` to :meth:`close`, which also read the engine's CPU
    seconds.  Every figure is taken over the whole window, so a slow
    stretch anywhere in it -- a stall, or a slowdown that builds up --
    moves the figure.
    """

    CLASSES = ("read", "write", "analytic")
    TAILS = {"read": 0.99, "write": 0.99, "analytic": 0.90}
    SLICES = 10

    def __init__(self) -> None:
        self.samples: Dict[str, List[tuple]] = {name: [] for name in self.CLASSES}
        self.started = self.ended = 0.0
        self.cpu = [0.0, 0.0]
        #: CPU seconds the hypervisor took from this host's vCPUs during
        #: the window: the main source of noise in the latency tails.
        self.steal = 0.0

    def open(self, at: float, cpu_seconds: float) -> None:
        self.started, self.cpu[0] = at, cpu_seconds
        self.steal = -host_steal_seconds()

    def close(self, at: float, cpu_seconds: float) -> None:
        self.ended, self.cpu[1] = at, cpu_seconds
        self.steal += host_steal_seconds()

    def add(self, op_class: str, began: float, ended: float, rows: int) -> None:
        self.samples[op_class].append((ended, ended - began, rows))

    def merge(self, other: "Window") -> None:
        for name in self.CLASSES:
            self.samples[name].extend(other.samples[name])

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    @property
    def ops(self) -> int:
        return sum(len(samples) for samples in self.samples.values())

    @classmethod
    def _figures(cls, samples: Dict[str, List[tuple]], seconds: float) -> Dict[str, float]:
        everything = [sample for part in samples.values() for sample in part]
        figures = {
            "throughput_ops_s": len(everything) / seconds,
            "rows_s": sum(sample[2] for sample in everything) / seconds,
        }
        for name, tail in cls.TAILS.items():
            latencies = [sample[1] for sample in samples[name]]
            for q in (0.5, tail):
                figures[f"{name}_p{round(q * 100)}_ms"] = (
                    quantile(latencies, q) * 1e3 if latencies else float("nan"))
        return figures

    def end_to_end(self) -> Dict[str, float]:
        """Every end-to-end figure over the whole window (latencies in ms)."""
        figures = self._figures(self.samples, self.seconds)
        figures["engine_cpu_ms_per_op"] = (self.cpu[1] - self.cpu[0]) * 1e3 / self.ops
        return figures

    def slices(self) -> List[Dict[str, float]]:
        """The same figures on each tenth of the window, by end time: for
        the result record, to show drift within a run."""
        width = self.seconds / self.SLICES
        parts: List[Dict[str, List[tuple]]] = [
            {name: [] for name in self.CLASSES} for _ in range(self.SLICES)]
        for name, samples in self.samples.items():
            for sample in samples:
                at = int((sample[0] - self.started) / width)
                parts[min(max(at, 0), self.SLICES - 1)][name].append(sample)
        return [self._figures(part, width) for part in parts]

    def sample_counts(self) -> Dict[str, int]:
        return {name: len(samples) for name, samples in self.samples.items()}


# -- the server process -----------------------------------------------------


class ServerHandle:
    """A launcher process running one TipServer; see ``launcher.py``."""

    def __init__(self, database: str, traced: bool = False) -> None:
        command = [sys.executable, os.path.join(HERE, "launcher.py"), "--db", database]
        if traced:
            command.append("--traced")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError(f"server launcher failed to start: {line!r}")
        self.port = int(line[1])

    def command(self, text: str) -> str:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline().strip()
        if not reply or reply.startswith("error"):
            raise RuntimeError(f"launcher answered {reply!r} to {text!r}")
        return reply

    def usage(self) -> Dict[str, float]:
        return json.loads(self.command("usage"))

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
            except OSError:
                pass
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


# -- host fingerprint ----------------------------------------------------------


def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop.

    Best of five, so the figure tracks the host's single-core speed
    rather than momentary contention.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return round(0.2 / best, 3)


def host_steal_seconds() -> float:
    """CPU time stolen from all of this host's vCPUs since boot (Linux)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def host_fingerprint() -> Dict[str, object]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "numpy": numpy_version,
        "calibration_mops": calibration_score(),
    }


def reset_peak_rss() -> None:
    """Start this process's peak resident memory afresh (Linux: writing
    5 to ``clear_refs`` resets the high-water mark to the current size)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident memory since the last reset, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")
