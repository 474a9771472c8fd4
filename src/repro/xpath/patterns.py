"""XML index patterns and the operations the advisor needs on them.

An *index pattern* is the linear XPath that defines which nodes a
partial XML index contains -- DB2's ``CREATE INDEX ... GENERATE KEY
USING XMLPATTERN '/site/regions/*/item/quantity'``.  The advisor reasons
about four operations on patterns:

``matches``
    Does a pattern match a concrete rooted *simple path* (such as
    ``/site/regions/africa/item/quantity``)?  This decides which
    document nodes are indexed, and drives size/selectivity estimation.

``pattern_contains``
    Is the set of paths matched by one pattern a superset of those
    matched by another?  The optimizer uses this for *index matching*
    (an index is usable for a query path only if the index pattern
    contains it) and the advisor uses it for redundancy detection.
    Implemented exactly, via automaton language inclusion over the
    finite alphabet of labels mentioned by the two patterns plus
    "any other label" symbols.

``generalize_pair`` / ``generalize_tail``
    The candidate generalization rules of Section 2.2: two patterns that
    differ in a single step produce a wildcard pattern; patterns sharing
    a prefix produce prefix-plus-wildcard patterns.

Patterns are immutable and hashable so they can key dictionaries, sets,
and DAG nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.xpath.errors import PatternError, XPathParseError

#: Symbolic alphabet members standing for "an element label not named by
#: either pattern" and "an attribute label not named by either pattern".
_OTHER_ELEMENT = "\x00other-element"
_OTHER_ATTRIBUTE = "@\x00other-attribute"


@dataclass(frozen=True)
class PatternStep:
    """One step of an index pattern.

    Attributes
    ----------
    label:
        The node test: an element name, ``*``, an attribute test
        ``@name``, or ``@*``.
    descendant:
        True when the step is reached through ``//`` (any number of
        intervening elements), False for a plain child step ``/``.
    """

    label: str
    descendant: bool = False

    @property
    def is_attribute(self) -> bool:
        return self.label.startswith("@")

    @property
    def is_wildcard(self) -> bool:
        return self.label in ("*", "@*")

    def matches_label(self, label: str) -> bool:
        """Does this step's node test accept the concrete ``label``?"""
        if self.label == "*":
            return not label.startswith("@")
        if self.label == "@*":
            return label.startswith("@")
        return self.label == label

    def to_text(self) -> str:
        return ("//" if self.descendant else "/") + self.label

    def with_label(self, label: str) -> "PatternStep":
        return PatternStep(label=label, descendant=self.descendant)


@dataclass(frozen=True)
class PathPattern:
    """An immutable linear XML index pattern (e.g. ``/site//item/@id``)."""

    steps: Tuple[PatternStep, ...]

    # ------------------------------------------------------------------
    # Construction / rendering
    # ------------------------------------------------------------------
    @staticmethod
    def parse(text: str) -> "PathPattern":
        """Parse a pattern string like ``/a/b//c/@id`` or ``//*``.

        Raises :class:`XPathParseError` for branching, predicates, or
        anything else outside the linear-pattern language.
        """
        original = text
        text = text.strip()
        if not text:
            raise XPathParseError("empty index pattern", original, 0)
        if not text.startswith("/"):
            # Index patterns are always rooted; accept "a/b" as "/a/b".
            text = "/" + text
        if "[" in text or "]" in text or "(" in text:
            raise XPathParseError(
                "index patterns must be linear paths without predicates",
                original, 0)
        steps: List[PatternStep] = []
        i = 0
        while i < len(text):
            if text.startswith("//", i):
                descendant = True
                i += 2
            elif text.startswith("/", i):
                descendant = False
                i += 1
            else:
                raise XPathParseError("expected '/' or '//'", original, i)
            j = i
            while j < len(text) and text[j] != "/":
                j += 1
            label = text[i:j]
            if not label:
                raise XPathParseError("empty step in index pattern", original, i)
            if label not in ("*", "@*") and not _valid_label(label):
                raise XPathParseError(f"invalid step label {label!r}", original, i)
            steps.append(PatternStep(label=label, descendant=descendant))
            i = j
        return PathPattern(steps=tuple(steps))

    def to_text(self) -> str:
        """Render the pattern back to its XPath form (memoized).

        Pattern text is the identity component of index/candidate keys,
        which the advisor's relevance map, plan cache, and search heaps
        read in their hot loops -- render once per pattern instance.
        """
        cached = self.__dict__.get("_text")
        if cached is None:
            cached = "".join(step.to_text() for step in self.steps)
            object.__setattr__(self, "_text", cached)
        return cached

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()

    def __hash__(self) -> int:
        """The dataclass field hash, memoized like :meth:`to_text`: LRU,
        match-cache and relevance-map probes hash their patterns."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.steps,))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def last_step(self) -> PatternStep:
        return self.steps[-1]

    @property
    def indexes_attribute(self) -> bool:
        """True when the pattern's final step is an attribute test."""
        return self.last_step.is_attribute

    @property
    def has_descendant_step(self) -> bool:
        return any(step.descendant for step in self.steps)

    @property
    def wildcard_count(self) -> int:
        return sum(1 for step in self.steps if step.is_wildcard)

    def generality_score(self) -> float:
        """A heuristic scalar: higher means a more general pattern.

        Used only for ordering/tie-breaking in reports and the top-down
        search (the authoritative relation is :func:`pattern_contains`).
        Wildcards and ``//`` steps add generality; longer fixed paths
        reduce it.
        """
        score = 0.0
        for step in self.steps:
            if step.descendant:
                score += 2.0
            if step.is_wildcard:
                score += 1.0
        return score - 0.1 * len(self.steps)

    # ------------------------------------------------------------------
    # Matching concrete paths
    # ------------------------------------------------------------------
    def matches(self, simple_path: str) -> bool:
        """Does this pattern match a concrete rooted simple path?

        ``simple_path`` is the slash-separated chain of element names
        produced by :meth:`repro.xmldb.nodes.XmlNode.simple_path`, e.g.
        ``/site/regions/africa/item/quantity`` or ``/site/people/person/@id``.
        """
        labels = split_simple_path(simple_path)
        return self._match_labels(labels)

    def _match_labels(self, labels: Sequence[str]) -> bool:
        # NFA simulation over the concrete label sequence.  State i means
        # "the first i steps of the pattern have been matched".
        states: Set[int] = {0}
        for label in labels:
            next_states: Set[int] = set()
            for state in states:
                if state < len(self.steps):
                    step = self.steps[state]
                    if step.descendant and not label.startswith("@"):
                        # ``//`` may skip this label entirely.
                        next_states.add(state)
                    if step.matches_label(label):
                        next_states.add(state + 1)
            states = next_states
            if not states:
                return False
        return len(self.steps) in states

    def matching_paths(self, paths: Iterable[str]) -> List[str]:
        """Filter ``paths`` down to those this pattern matches."""
        return [p for p in paths if self.matches(p)]

    def matches_evaluator(self, simple_path: str) -> bool:
        """Does this pattern match ``simple_path`` under *evaluator*
        (descendant-or-self) semantics?

        :meth:`matches` implements the index-pattern language, where a
        ``//`` step steps strictly *down* before testing its label.  The
        interpretive :class:`~repro.xpath.evaluator.XPathEvaluator`
        implements XPath's ``descendant-or-self::`` instead: ``/a//a``
        selects ``/a`` itself.  Because the evaluator's result set for a
        linear pattern depends only on each node's root-to-node label
        chain, that semantics is decidable per simple path: it is the
        strict NFA of :meth:`_match_labels` plus an epsilon-closure that
        lets a ``//`` element step consume the label *just matched* a
        second time ("self").  The columnar backend and collection
        routing use this to answer ``//`` shapes exactly instead of
        falling back to interpretation or widening to all collections.
        """
        labels = split_simple_path(simple_path)
        return self._match_labels_evaluator(labels)

    def _match_labels_evaluator(self, labels: Sequence[str]) -> bool:
        states: Set[int] = {0}
        for label in labels:
            is_attribute = label.startswith("@")
            next_states: Set[int] = set()
            for state in states:
                if state < len(self.steps):
                    step = self.steps[state]
                    if step.descendant and not is_attribute:
                        # ``//`` may skip this label entirely.
                        next_states.add(state)
                    if step.matches_label(label):
                        next_states.add(state + 1)
            if not is_attribute:
                # Descendant-or-self closure: a following ``//`` element
                # step may also match the label just consumed (its own
                # context node).  Iterate to fixpoint so chains such as
                # ``/a//a//a`` accept ``/a``.
                frontier = list(next_states)
                while frontier:
                    state = frontier.pop()
                    if state < len(self.steps):
                        step = self.steps[state]
                        if step.descendant and not step.is_attribute \
                                and step.matches_label(label):
                            if state + 1 not in next_states:
                                next_states.add(state + 1)
                                frontier.append(state + 1)
            states = next_states
            if not states:
                return False
        return len(self.steps) in states

    # ------------------------------------------------------------------
    # Containment and equivalence
    # ------------------------------------------------------------------
    def contains(self, other: "PathPattern") -> bool:
        """True when every path matched by ``other`` is matched by ``self``."""
        return pattern_contains(self, other)

    def equivalent(self, other: "PathPattern") -> bool:
        """True when the two patterns match exactly the same paths."""
        return pattern_contains(self, other) and pattern_contains(other, self)

    # ------------------------------------------------------------------
    # Generalization primitives
    # ------------------------------------------------------------------
    def with_wildcard_at(self, index: int) -> "PathPattern":
        """Return a copy with the label of step ``index`` replaced by a wildcard."""
        if not 0 <= index < len(self.steps):
            raise PatternError(f"step index {index} out of range")
        step = self.steps[index]
        wildcard = "@*" if step.is_attribute else "*"
        new_steps = list(self.steps)
        new_steps[index] = step.with_label(wildcard)
        return PathPattern(steps=tuple(new_steps))

    def prefix(self, length: int) -> "PathPattern":
        """Return the pattern consisting of the first ``length`` steps."""
        if not 0 < length <= len(self.steps):
            raise PatternError(f"prefix length {length} out of range")
        return PathPattern(steps=self.steps[:length])

    def append_step(self, label: str, descendant: bool = False) -> "PathPattern":
        """Return a copy with one more step appended."""
        return PathPattern(steps=self.steps + (PatternStep(label, descendant),))


def _valid_label(label: str) -> bool:
    body = label[1:] if label.startswith("@") else label
    if not body:
        return False
    return all(ch.isalnum() or ch in "_-.:" for ch in body)


def split_simple_path(simple_path: str) -> List[str]:
    """Split ``/a/b/@c`` into ``['a', 'b', '@c']`` (root ``/`` -> ``[]``)."""
    stripped = simple_path.strip()
    if stripped in ("", "/"):
        return []
    if stripped.startswith("/"):
        stripped = stripped[1:]
    return [part for part in stripped.split("/") if part]


# ----------------------------------------------------------------------
# Containment via automaton language inclusion
# ----------------------------------------------------------------------
def _alphabet_for(general: PathPattern, specific: PathPattern) -> List[str]:
    labels: Set[str] = set()
    for pattern in (general, specific):
        for step in pattern.steps:
            if not step.is_wildcard:
                labels.add(step.label)
    alphabet = sorted(labels)
    alphabet.append(_OTHER_ELEMENT)
    alphabet.append(_OTHER_ATTRIBUTE)
    return alphabet


def _nfa_move(pattern: PathPattern, states: FrozenSet[int], label: str) -> FrozenSet[int]:
    next_states: Set[int] = set()
    for state in states:
        if state < len(pattern.steps):
            step = pattern.steps[state]
            if step.descendant and not label.startswith("@"):
                next_states.add(state)
            if _step_accepts_symbol(step, label):
                next_states.add(state + 1)
    return frozenset(next_states)


def _step_accepts_symbol(step: PatternStep, symbol: str) -> bool:
    """Does a pattern step accept an alphabet symbol (which may be OTHER)?"""
    if step.label == "*":
        return not symbol.startswith("@")
    if step.label == "@*":
        return symbol.startswith("@")
    # A named step never matches the OTHER symbols.
    return step.label == symbol


@lru_cache(maxsize=65536)
def pattern_contains(general: PathPattern, specific: PathPattern) -> bool:
    """Exact containment test: ``L(specific) ⊆ L(general)``.

    Both patterns describe regular languages over label sequences; we
    check inclusion by a product construction between ``specific``'s NFA
    and the determinized NFA of ``general`` over a finite alphabet of
    the labels either pattern names plus two "other" symbols.  Patterns
    in practice have fewer than ten steps, so the construction is cheap.
    Results are memoized because the optimizer's index matching and the
    advisor's redundancy checks ask the same containment questions many
    times over.
    """
    alphabet = _alphabet_for(general, specific)
    start = (frozenset({0}), frozenset({0}))
    seen: Set[Tuple[FrozenSet[int], FrozenSet[int]]] = {start}
    frontier: List[Tuple[FrozenSet[int], FrozenSet[int]]] = [start]
    specific_accept = len(specific.steps)
    general_accept = len(general.steps)
    while frontier:
        specific_states, general_states = frontier.pop()
        if specific_accept in specific_states and general_accept not in general_states:
            return False
        for symbol in alphabet:
            next_specific = _nfa_move(specific, specific_states, symbol)
            if not next_specific:
                continue
            next_general = _nfa_move(general, general_states, symbol)
            pair = (next_specific, next_general)
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


# ----------------------------------------------------------------------
# Generalization rules (Section 2.2)
# ----------------------------------------------------------------------
def generalize_pair(first: PathPattern, second: PathPattern) -> Optional[PathPattern]:
    """Apply the pairwise generalization rule to two patterns.

    If the patterns have the same number of steps, agree on every step's
    axis, and differ in the labels of one or more steps, the result
    replaces every differing label with a wildcard --
    ``/regions/namerica/item/quantity`` + ``/regions/africa/item/quantity``
    -> ``/regions/*/item/quantity``;
    ``/regions/*/item/quantity`` + ``/regions/samerica/item/price``
    -> ``/regions/*/item/*``.

    Returns ``None`` when the rule does not apply (different lengths,
    mismatched axes, identical patterns, or element/attribute kind
    conflicts in a differing step).
    """
    if first.length != second.length:
        return None
    if first == second:
        return None
    new_steps: List[PatternStep] = []
    differed = False
    for step_a, step_b in zip(first.steps, second.steps):
        if step_a.descendant != step_b.descendant:
            return None
        if step_a.label == step_b.label:
            new_steps.append(step_a)
            continue
        if step_a.is_attribute != step_b.is_attribute:
            return None
        wildcard = "@*" if step_a.is_attribute else "*"
        new_steps.append(PatternStep(label=wildcard, descendant=step_a.descendant))
        differed = True
    if not differed:
        return None
    generalized = PathPattern(steps=tuple(new_steps))
    if generalized == first or generalized == second:
        return None
    return generalized


def generalize_tail(pattern: PathPattern) -> Optional[PathPattern]:
    """Generalize the last step of a pattern to a wildcard.

    ``/regions/*/item/quantity`` -> ``/regions/*/item/*``.  Returns
    ``None`` when the last step is already a wildcard.
    """
    if pattern.last_step.is_wildcard:
        return None
    return pattern.with_wildcard_at(pattern.length - 1)


def common_prefix_length(first: PathPattern, second: PathPattern) -> int:
    """Number of identical leading steps shared by the two patterns."""
    count = 0
    for step_a, step_b in zip(first.steps, second.steps):
        if step_a != step_b:
            break
        count += 1
    return count


def generalize_prefix(first: PathPattern, second: PathPattern,
                      minimum_prefix: int = 1) -> Optional[PathPattern]:
    """Generalize two patterns that share a prefix but diverge afterwards.

    The result is ``<shared prefix>//*`` -- an index over everything
    below the shared prefix.  Returns ``None`` when the shared prefix is
    shorter than ``minimum_prefix`` or one pattern is a prefix of the
    other (in which case the pairwise/tail rules are the right tools).
    """
    prefix_len = common_prefix_length(first, second)
    if prefix_len < minimum_prefix:
        return None
    if prefix_len == first.length or prefix_len == second.length:
        return None
    prefix = first.prefix(prefix_len)
    return prefix.append_step("*", descendant=True)


#: The universal element pattern used by the Enumerate Indexes mode.
UNIVERSAL_ELEMENT_PATTERN = PathPattern.parse("//*")
#: The universal attribute pattern (so attribute predicates also surface).
UNIVERSAL_ATTRIBUTE_PATTERN = PathPattern.parse("//@*")
