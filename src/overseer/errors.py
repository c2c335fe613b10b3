"""Exception hierarchy shared by all overseer modules.

Every failure the toolkit can report deliberately is an OverseerError;
anything else escaping the library is a bug.  Each class carries the
command line's exit code for it as `exit_code`: 2 bad input, 3 no
supervisor exists (the initial marking is forbidden, or breaks a
constraint given to `synthesize`), 4 an uncoverable border state, and
5, the default, a failed check.
"""


class OverseerError(Exception):
    """Base class for all expected toolkit failures."""

    exit_code = 5


class PnetError(OverseerError):
    """Problem with a .pnet document (syntax, references, arc weights)."""

    exit_code = 2


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

    exit_code = 2


class StateBudgetExceeded(OverseerError):
    """A search hit `--state-budget`: reachable states, or minimal
    transversals in flight."""

    exit_code = 2


class InitialMarkingViolation(OverseerError):
    """The initial marking already violates a constraint; no supervisor exists."""

    exit_code = 3


class ForbiddenInitialMarking(OverseerError):
    """The initial marking is itself forbidden; no supervisor exists."""

    exit_code = 3


class UncoverableState(OverseerError):
    """Some border state is covered by no candidate over-state, so no
    supervisor of 0/1 token-sum rows is maximally permissive (the
    fallback's signed exact rows are).  `uncovered` holds those border
    states as int masks."""

    exit_code = 4

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
    """Wraps an error with the pipeline stage it occurred in, and takes
    its exit code."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        self.exit_code = cause.exit_code
        super().__init__("%s: %s" % (stage, cause))
