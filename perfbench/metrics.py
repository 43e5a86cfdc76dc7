"""Metric math for the end-to-end benchmark, kept apart from process
handling so the unit tests can check it directly.

Every function here is pure except the /proc readers, which take the
path prefix as an argument so a test can point them at fixture files.
"""

import math

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def samples_needed(q):
    """Smallest sample count leaving MIN_BEYOND samples above quantile q
    (0 < q < 1)."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between
    closest ranks, or None when fewer than samples_needed(q) values exist
    (q < 1; the median needs 20)."""
    if not values or len(values) < samples_needed(q):
        return None
    return quantile(values, q)


def quantile(values, q):
    """Plain interpolated q-quantile of a non-empty list, for statistics
    across measurement windows (no sample-count rule)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    """Plain median of any non-empty list (for per-run repeats such as
    set-up times, where the sample-count rule does not apply)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def latencies_from_due(due, done):
    """Open-loop latency: each request is timed from when it was due to be
    sent, not from when the generator got round to sending it, so a stall
    also charges the requests queued behind it."""
    return [d - s for s, d in zip(due, done)]


def windows(done, width, end):
    """Indices of the completions (seconds since the phase start) that
    fall in each consecutive `width`-second window of [0, end); a partial
    last window is dropped."""
    out = [[] for _ in range(int(end // width))]
    for i, t in enumerate(done):
        w = int(t // width)
        if w < len(out):
            out[w].append(i)
    return out


def window_rates(done, per_item, width, end):
    """Throughput of each window: `per_item` units per completion after
    the window's first, divided by the time from its first to its last
    completion (`done` ascending). Windows with fewer than two
    completions are dropped."""
    rates = []
    for idx in windows(done, width, end):
        if len(idx) >= 2 and done[idx[-1]] > done[idx[0]]:
            rates.append((len(idx) - 1) * per_item
                         / (done[idx[-1]] - done[idx[0]]))
    return rates


def interpolate(samples, t):
    """Linear interpolation of ascending (time, value) samples at t,
    clamped to the first and last sample."""
    if t <= samples[0][0]:
        return samples[0][1]
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return samples[-1][1]


def self_time(layer_total, child_total):
    """A layer's self time from two replays of identical inputs: its own
    total minus the total of the layer it calls."""
    return layer_total - child_total


def mean(values):
    return sum(values) / len(values) if values else 0.0


def parse_proc_stat(text):
    """utime + stime clock ticks from the text of /proc/<pid>/stat. The
    command name is parenthesised and may hold spaces, so fields are
    counted from the last ')'."""
    fields = text[text.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(fields[11]) + int(fields[12])


def parse_vm_hwm_kb(text):
    """Peak resident set (VmHWM) in kB from the text of
    /proc/<pid>/status."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def parse_cpu_line(text):
    """(busy+idle total, steal) jiffies from the aggregate 'cpu' line of
    /proc/stat."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            ticks = [int(x) for x in line.split()[1:]]
            # user nice system idle iowait irq softirq steal guest guest_nice;
            # guest time is already counted in user/nice.
            return sum(ticks[:8]), ticks[7]
    raise ValueError("no cpu line")


def read_proc_cpu_seconds(pid, proc="/proc", ticks_per_second=100):
    with open(f"{proc}/{pid}/stat") as f:
        return parse_proc_stat(f.read()) / ticks_per_second


def read_vm_hwm_mb(pid, proc="/proc"):
    with open(f"{proc}/{pid}/status") as f:
        return parse_vm_hwm_kb(f.read()) / 1024.0


def read_host_ticks(proc="/proc"):
    with open(f"{proc}/stat") as f:
        return parse_cpu_line(f.read())


def steal_pct(before, after):
    """Host steal share (%) between two read_host_ticks samples."""
    total = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / total if total > 0 else 0.0
