"""Exception types raised by the simulation engine."""


class SimulationError(Exception):
    """Base class for all errors raised by :mod:`repro.simx`."""


class ProcessKilled(SimulationError):
    """Injected into a process generator when :meth:`Process.kill` is called."""


class NodeFailedError(SimulationError):
    """Thrown into every task process hosted on a node when the node fails.

    Unlike :class:`ProcessKilled` (which terminates a process *cleanly* —
    its ``done_event`` succeeds), a node failure is an *error* outcome:
    the process's ``done_event`` fails, so joiners and the MPI layer can
    distinguish "rank finished" from "rank died with its node"."""

