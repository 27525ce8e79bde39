"""Analysis utilities on top of the experiment drivers.

* :mod:`repro.analysis.reference` — the paper's claims as structured
  data, each with the measurement that scores it (``repro claims``);
* :mod:`repro.analysis.timeline` — per-task busy intervals, utilization,
  waiting analysis, and ASCII timelines from trace recordings.
"""

from repro.analysis.reference import PAPER, PaperClaim, measure, shape_report
from repro.analysis.timeline import (
    BusyInterval,
    Timeline,
    build_timeline,
    render_ascii_timeline,
)

__all__ = [
    "BusyInterval",
    "PAPER",
    "PaperClaim",
    "Timeline",
    "build_timeline",
    "measure",
    "render_ascii_timeline",
    "shape_report",
]
