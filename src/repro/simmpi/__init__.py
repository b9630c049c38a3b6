"""simmpi — a deterministic discrete-event simulation of an MPI cluster.

This package is the hardware/middleware substrate for the pioBLAST
reproduction.  It provides:

- :mod:`repro.simmpi.engine`     — virtual clock + cooperative scheduler,
- :mod:`repro.simmpi.resource`   — processor-sharing bandwidth resources,
- :mod:`repro.simmpi.network`    — latency/bandwidth network model,
- :mod:`repro.simmpi.comm`       — an mpi4py-flavoured ``Communicator``,
- :mod:`repro.simmpi.filesystem` — shared/local filesystem models holding
  real bytes,
- :mod:`repro.simmpi.iofile`     — MPI-IO style file handles with file
  views and two-phase collective writes,
- :mod:`repro.simmpi.launcher`   — ``run()`` to execute an SPMD program.

Rank programs are ordinary Python functions executed on real threads; the
engine guarantees only one rank runs at a time and advances a virtual
clock, so runs are fully deterministic while the programs compute real
results (the BLAST layers on top produce byte-identical output files to a
serial run).
"""

from repro.simmpi.engine import (
    Engine,
    SimError,
    ProcessFailure,
    RankKilled,
)
from repro.simmpi.resource import SharedBandwidth
from repro.simmpi.network import NetworkModel
from repro.simmpi.comm import Communicator, Status, TIMEOUT
from repro.simmpi.faults import (
    BitFlipFault,
    CrashFault,
    DiskSlowdownFault,
    FaultPlan,
    FaultReport,
    MessageDelayFault,
    MessageDropFault,
    NetworkSlowdownFault,
    StragglerFault,
    TornWriteFault,
    TransientIOError,
    TransientIOFault,
    retry_io,
)
from repro.simmpi.filesystem import (
    CorruptFileError,
    FileStore,
    FilesystemModel,
    ParallelFS,
    NFSFilesystem,
    LocalDisk,
)
from repro.simmpi.iofile import MPIFile, FileView
from repro.simmpi.launcher import (
    Cluster,
    PlatformSpec,
    ProcContext,
    RunResult,
    run,
)
from repro.simmpi.trace import PhaseRecorder

__all__ = [
    "Engine",
    "SimError",
    "ProcessFailure",
    "RankKilled",
    "TIMEOUT",
    "BitFlipFault",
    "CrashFault",
    "DiskSlowdownFault",
    "FaultPlan",
    "FaultReport",
    "MessageDelayFault",
    "MessageDropFault",
    "NetworkSlowdownFault",
    "StragglerFault",
    "TornWriteFault",
    "TransientIOError",
    "TransientIOFault",
    "retry_io",
    "SharedBandwidth",
    "NetworkModel",
    "Communicator",
    "Status",
    "CorruptFileError",
    "FileStore",
    "FilesystemModel",
    "ParallelFS",
    "NFSFilesystem",
    "LocalDisk",
    "MPIFile",
    "FileView",
    "Cluster",
    "PlatformSpec",
    "ProcContext",
    "RunResult",
    "run",
    "PhaseRecorder",
]
