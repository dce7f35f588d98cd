"""Exception hierarchy shared across the package, the base of its record
classes, and every resource cap it raises on, each defined once and read
from here at check time."""

import operator


class SpjError(Exception):
    """Base class for all errors raised by this package."""


class SignatureError(SpjError):
    """Bad signature, or two values that were expected to be similar are not."""


class ArityError(SpjError):
    """A tuple, identification set or projection index is out of range."""


class KeyConstraintError(SpjError):
    """Malformed key constraint (position out of range, unknown relation),
    or data that breaks a key."""


class PlanSyntaxError(SpjError):
    """Plan text could not be parsed.  Carries line/column of the offence,
    the file it was read from if any, and ``reason``, the message without
    them."""

    def __init__(self, message, line=None, column=None, path=None):
        self.reason = message
        if line is not None:
            message = f"{line}:{column}: {message}"
        if path is not None:
            message = f"{path}:{message}" if line is not None else f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ResourceCapError(SpjError):
    """A search or a build was asked to run above one of this module's
    resource caps: a :class:`Caps` universe or a fixed bound below."""


class FormatError(SpjError):
    """A JSON / keys / plan file does not match the documented format."""


class DegenerateInputError(SpjError):
    """An operation was applied to a degenerate value it cannot handle
    (for example plan synthesis from a structure with no tuples at all)."""


class Record:
    """A read-only record whose fields are its class's ``__slots__``, in
    constructor order, set by a hand-written ``__init__`` with
    :func:`set_field`.  Records of one class are equal when their fields
    are, and a record hashes by its fields.  Records copy and pickle."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)  # field values; one field's bare value

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:
        """Fill a copied or unpickled record from ``state``, the pair of its
        ``__dict__`` (None when it has none) and its slot fields."""
        instance_dict, fields = state
        if instance_dict:
            self.__dict__.update(instance_dict)
        for name, value in fields.items():
            set_field(self, name, value)


# Sets a field of a record; only its ``__init__`` calls it.
set_field = object.__setattr__


class Caps(Record):
    """Universe caps of the core search and the decomposition search, passed
    down from the CLI, whose ``--cap-universe`` sets both.  Keyed C13's
    13-element chased representation is the smallest keyed cycle the core
    cap refuses."""

    __slots__ = ("core_universe", "width_universe")

    def __init__(self, core_universe: int = 12, width_universe: int = 16):
        set_field(self, "core_universe", core_universe)
        set_field(self, "width_universe", width_universe)


# The most elements a plan's representation may allocate: one per arity
# position of each basic occurrence, checked before any is allocated, by
# build_representation and by degree analysis.  About half a KB each, so
# about 0.5 GB at the cap.  Keyed C20's synthesized plan needs 22,420.
# Degree analysis also charges every structure its fold builds, and a
# witness family member's elements and rows together share the cap.
REPRESENTATION_ELEMENTS_CAP = 1_000_000

# The most words (rows times slots plus 6) one step of a join chain may
# build, so that a step's memory is bounded however narrow its rows: a
# 2-slot row takes 8 words, 4 per slot, and a 12-slot row 18, 1.5 per slot.
# The test suite's largest step, the unkeyed Mobius 10-ladder's walks on an
# 8-vertex out-degree-4 graph, is 33.6 million words (2,097,152 rows of 10
# slots, near 400 MB); the benchmark's is 157,464.  The unkeyed Mobius and
# squared 14- and 16-vertex inputs on a 6-vertex out-degree-3 graph are
# refused at their step of 60.6 million (3,188,646 rows of 13 slots).
JOIN_STEP_WORDS_CAP = 40_000_000

# The most characters of subplan text one output may print.  ``represent``
# and ``evaluate --trace`` or ``--format text`` print every occurrence's
# whole subplan, so their text grows with the square of a plan's depth:
# 2.4 GB of memory for the 4,000-level project/join chain.  The 1,200
# nested selections of the deep-plan tests print about 17 million.
PRINTED_SUBPLANS_CAP = 50_000_000
