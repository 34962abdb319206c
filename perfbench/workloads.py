"""The benchmark's workloads: the CLI verbs each one runs, in order.

Every workload runs the default scenario (2^19 x 10 fs grid, five presets,
451 delays).  The workload seed only sets ``sampling.seed``; the physics
inputs are the paper's fixed presets.

- ``scan`` exercises the 451-delay threaded path of ``modes.delay_overlaps``
  (about 88% of its wall time); its CSV output is small.
- ``depth`` uses the same layer through the shaper's best-delay search:
  many single-delay calls plus coarse 221-delay scans, and 15 FFTs and
  5 H(nu) evaluations per medium.
- ``render`` does no delay scan; its time goes to the FFT pair, H(nu) and
  writing text.  It is the bypass workload for delay-scan and propagation
  work, and the mechanism workload for CSV and formatting work.
"""

WORKLOADS = {
    "scan": ("xcorr", "eta-scan"),
    "depth": ("depth-scan",),
    "render": ("propagate", "wigner", "sample"),
}


def verb_metric(verb: str) -> str:
    """Name of a verb's wall-time figure, e.g. ``eta-scan`` -> ``eta_scan_s``."""
    return verb.replace("-", "_") + "_s"
