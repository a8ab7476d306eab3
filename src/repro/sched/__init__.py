"""AHS target selection: minimize *expected* execution time (§4).

The pieces map one-to-one onto the supplied text:

- :class:`repro.sched.database.TargetEntry` / ``MachineDatabase`` — the
  execution-model-and-machine database (§4.1): name, width, per-operation
  stable times, last known load average, load-average increment.
- :mod:`repro.sched.timing` — the ``timer`` support program (§4.1.1):
  measures per-op times from long noisy runs, 5-point median filtered,
  ±10%-ish accuracy.
- :mod:`repro.sched.cost` — the §4.2 cost formula: expected execution
  counts (from the compiler) x per-op times x adjusted load average.
- :mod:`repro.sched.select` — the two-phase Target Selection Algorithm
  (best single machine vs best set of distributed targets).
- :mod:`repro.sched.load` — load dynamics and the explicit
  update-load-averages command.
- :mod:`repro.sched.runner` — executes the chosen target(s) on the event
  kernel, yielding *actual* times to compare with predictions.
"""

from repro.sched.cost import predict_time
from repro.sched.database import MachineDatabase, TargetEntry
from repro.sched.functions import FunctionSchedule, schedule_functions
from repro.sched.load import LoadGenerator, update_load_averages
from repro.sched.runner import simulate_execution
from repro.sched.select import Selection, select_target
from repro.sched.timing import measure_op_times

__all__ = [
    "FunctionSchedule",
    "LoadGenerator",
    "MachineDatabase",
    "Selection",
    "TargetEntry",
    "measure_op_times",
    "predict_time",
    "schedule_functions",
    "select_target",
    "simulate_execution",
    "update_load_averages",
]
