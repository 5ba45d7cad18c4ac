"""Host speed probe for normalising times on a shared machine.

On a host shared with other tenants the CPU's effective speed drifts by up
to 2x for seconds to minutes at a time (measured on a 2-vCPU VM with no
steal time reported: one ``snapshot`` pass took 0.71 s to 1.41 s within a
minute, one ``validate`` pass 1.0 s to 2.1 s). A median over one run of a
few seconds cannot average that out. So every workload process runs this
fixed pure-Python probe before set-up, after set-up and after every pass,
and the run reports its times multiplied by
``PROBE_REFERENCE_S / median(probe times)``: seconds at the speed at which
the probe takes ``PROBE_REFERENCE_S``. On 170 s of alternating ``validate``
passes and probes, the medians of 12 s windows spread 24% raw and 13%
normalised, those of 30 s windows 15% and 6% (interquartile range over
median). Pass-to-pass noise is only weakly correlated with the probe, so
the factor is a median over the whole run, not a per-pass ratio.

The probe resembles the program's hot paths (per-point complex square roots
with branch selection, 17-digit float formatting, list building) and uses
only the standard library, so it can run before ``import nads`` without
importing numpy early. It runs on one thread, so it tracks the speed of the
core it runs on; the two-thread sweep is tracked less closely.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

#: Probe time defining the reference speed; about its time on a quiet host.
PROBE_REFERENCE_S = 0.045

_POINTS = [complex(math.sin(0.001 * k), math.cos(0.0013 * k)) for k in range(3000)]


def probe() -> float:
    """Seconds taken by one fixed unit of interpreter work."""
    start = time.perf_counter()
    for _ in range(15):
        prev = _POINTS[0]
        roots = []
        for z in _POINTS:
            root = cmath.sqrt(z * z + 1j)
            if abs(root - prev) > abs(root + prev):
                root = -root
            roots.append(root)
            prev = root
        ",".join("%.17g" % r.real for r in roots)
    return time.perf_counter() - start


def speed_factor(probes: list[float]) -> float:
    """Multiplier taking times measured alongside ``probes`` to reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probes)
