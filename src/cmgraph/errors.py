"""Exception hierarchy for the cmgraph toolkit."""


class CmgraphError(Exception):
    """Base class for all cmgraph errors."""


class LoopEdgeError(CmgraphError):
    """An edge's two endpoints coincide."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"loop edge at node {label!r}")


class UnknownNodeError(CmgraphError):
    """A node label is not part of the graph."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown node {label!r}")


class NotAChainGraphError(CmgraphError):
    """The operation requires a chain graph (lines/arrows, no semi-directed cycle)."""


class NotACMGError(CmgraphError):
    """The operation requires a chain mixed graph (no semi-directed cycle with an arrow)."""


class NotAnAnGError(CmgraphError):
    """The operation requires an anterial graph."""


class MalformedQueryError(CmgraphError):
    """Separation query sets overlap or mention unknown nodes."""


class GroundSetMismatchError(CmgraphError):
    """Two independence models are defined over different node sets."""


class TooLargeError(CmgraphError):
    """The graph exceeds the exhaustive-enumeration cap."""


class BoundTooSmallError(CmgraphError):
    """Walk-length bound below the sufficiency bound for the oracle."""


class TransformSpecError(CmgraphError):
    """Marginalization and conditioning sets overlap or reference unknown nodes."""


class InvalidConfigError(CmgraphError):
    """Generator configuration outside the supported ranges."""


class ParseError(CmgraphError):
    """Graph file could not be parsed."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")
