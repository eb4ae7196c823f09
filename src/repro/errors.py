"""Exception hierarchy shared by the framework and the mini-systems.

``SimFault`` subclasses model the *effects* of faults inside the simulated
distributed systems (software-implemented fault injection, §2 Fault Model).
Framework errors (misconfiguration, protocol violations of the harness
itself) derive from ``ReproError`` instead so they are never confused with
injected or propagated system faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for errors of the framework itself."""


class ConfigError(ReproError):
    """Invalid configuration passed to a framework component."""


class UnknownSite(ReproError):
    """A site id was used that is not present in the site registry."""


class PipelineError(ReproError):
    """Base class for errors of the staged pipeline API."""


class StageDependencyError(PipelineError):
    """A pipeline's stage list cannot satisfy some stage's ``requires``."""


class MissingArtifact(PipelineError):
    """A stage asked the context for an artifact no stage has produced."""


class SimFault(Exception):
    """Base class for fault effects raised inside simulated systems."""


class IOEx(SimFault):
    """Analogue of ``java.io.IOException``."""


class RpcTimeout(IOEx):
    """An RPC did not complete within its timeout."""


class NodeCrashed(SimFault):
    """The target node of an operation has crashed."""


class ReplicaAlreadyExists(IOEx):
    """HDFS: temporary replica creation raced an existing replica."""


class PrematureEndOfFile(IOEx):
    """HBase: WAL reader hit a truncated trailing record."""


class NotPrimary(IOEx):
    """HDFS HA: RPC reached a NameNode that is no longer active."""


class SafeModeException(IOEx):
    """HDFS: NameNode rejects mutations while in safe mode."""
