"""repro.mpi — a simulated MPI over the discrete-event cluster.

The API deliberately mirrors mpi4py's lowercase, object-passing layer
(``send/recv/irecv``, ``bcast/reduce/allreduce/alltoall/barrier``) —
the idiomatic Python MPI surface — but executes on simulated nodes and a
simulated interconnect, with collectives implemented *algorithmically*
(binomial trees, recursive doubling, pairwise exchange, dissemination)
over simulated point-to-point messages.  That structural fidelity is what
lets SMM freezes propagate through synchronization chains the way they do
on the paper's cluster (DESIGN.md §2).

* :mod:`network` — α–β interconnect with per-node NIC serialization.
* :mod:`comm` — message matching, ranks, point-to-point, requests.
* :mod:`collectives` — the collective algorithms.
* :mod:`cluster` — node farm construction and the ``mpirun`` launcher.
"""

from repro.mpi.network import Network, NetworkSpec, Nic
from repro.mpi.comm import Communicator, Message, Rank, Request, ANY_SOURCE, ANY_TAG
from repro.mpi.cluster import Cluster, ClusterSpec, JobResult, run_mpi_job

__all__ = [
    "Network",
    "NetworkSpec",
    "Nic",
    "Communicator",
    "Message",
    "Rank",
    "Request",
    "ANY_SOURCE",
    "ANY_TAG",
    "Cluster",
    "ClusterSpec",
    "JobResult",
    "run_mpi_job",
]
