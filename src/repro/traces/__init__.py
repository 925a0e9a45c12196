"""Wireless trace records, capture, synthesis and analysis.

The paper's Section 3 evidence comes from (i) sniffed traces of three
MIT workshop sessions, (ii) a controlled office experiment (EXP-1) and
(iii) the Dartmouth Whittemore campus trace.  None of those captures
are redistributable, so this package provides:

* the shared :class:`TraceRecord` format and analyzers implementing the
  paper's statistics (bytes-per-rate fractions, busy 1-second
  intervals, heaviest-user share);
* an in-simulator sniffer producing the same records from live runs
  (used for the EXP-1 reproduction);
* synthetic generators calibrated to the published summary statistics
  for the workshop sessions and the dorm day.
"""

from repro.traces.records import TraceRecord
from repro.traces.sniffer import ChannelSniffer
from repro.traces.analyze import (
    bytes_by_rate,
    rate_fractions,
    busy_intervals,
    heaviest_user_fractions,
    BusyInterval,
)
from repro.traces.synthetic import (
    WorkshopTraceConfig,
    generate_workshop_trace,
    DormTraceConfig,
    generate_dorm_trace,
    PAPER_WORKSHOP_MIXES,
)

__all__ = [
    "TraceRecord",
    "ChannelSniffer",
    "bytes_by_rate",
    "rate_fractions",
    "busy_intervals",
    "heaviest_user_fractions",
    "BusyInterval",
    "WorkshopTraceConfig",
    "generate_workshop_trace",
    "DormTraceConfig",
    "generate_dorm_trace",
    "PAPER_WORKSHOP_MIXES",
]
