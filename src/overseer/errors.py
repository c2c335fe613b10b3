"""Exception hierarchy shared by all overseer modules.

Every failure the toolkit can report deliberately is an OverseerError;
anything else escaping the library is a bug.
"""


class OverseerError(Exception):
    """Base class for all expected toolkit failures."""


class PnetError(OverseerError):
    """Problem with a .pnet document (syntax, references, arc weights)."""


class PnetSyntaxError(PnetError):
    def __init__(self, message, source="<string>", line=None, column=None):
        self.message = message
        self.source = source
        self.line = line
        self.column = column
        where = source
        if line is not None:
            where = "%s:%d" % (source, line)
            if column is not None:
                where = "%s:%d" % (where, column)
        super().__init__("%s: %s" % (where, message))


class UnknownPlaceName(PnetError):
    """A place name does not resolve against the net."""


class SafenessViolation(OverseerError):
    """A firing would put a second token into a place; the net is not safe."""


class StateBudgetExceeded(OverseerError):
    """A search hit `--state-budget`: reachable states, or minimal
    transversals in flight."""


class InitialMarkingViolation(OverseerError):
    """The initial marking already violates a constraint; no supervisor exists."""


class ForbiddenInitialMarking(OverseerError):
    """The initial marking is itself forbidden; no supervisor exists."""


class UncontrollableBreach(OverseerError):
    """An authorized state can enter the forbidden set by an uncontrollable
    firing.  After a correct closure this cannot happen; the check fails
    closed instead of synthesizing an unsound controller."""


class UncoverableState(OverseerError):
    """Some border state is covered by no candidate over-state, so no
    supervisor of 0/1 token-sum rows is maximally permissive (the
    fallback's signed exact rows are).  `uncovered` holds those border
    states as int masks."""

    def __init__(self, message, uncovered=()):
        super().__init__(message)
        self.uncovered = tuple(uncovered)


class NonBinaryController(OverseerError):
    """The controller needs arc weights or markings beyond 0/1 and cannot
    be materialized as a safe net (verification still runs, on the
    plant's state graph)."""


class VerificationFailure(OverseerError):
    """A pipeline stage's own consistency check failed."""


class StageFailure(OverseerError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__("%s: %s" % (stage, cause))
