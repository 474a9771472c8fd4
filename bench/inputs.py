"""Workload profiles and their seeded inputs.

Everything the program under test receives is made here from ``--seed``:
XML document text, statement text, and a write schedule.  The four
profiles run the same pipeline (see :mod:`bench.pipeline`) with sizes
that put the time into different layers; the size constants are recorded
in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.workloads import (
    SyntheticWorkloadGenerator,
    TpoxConfig,
    XMarkConfig,
    generate_tpox_database,
    generate_xmark_database,
    tpox_query_workload,
    xmark_query_workload,
    xmark_unseen_queries,
)
from repro.xmldb.serializer import serialize

GREEDY = "greedy-heuristic"
TOP_DOWN = "top-down"

#: One write round: this many documents added, this many removed, then
#: one barrier query (pays the index catch-up) and a few stream queries.
ADDS_PER_ROUND = 4
REMOVES_PER_ROUND = 1
STREAM_PER_ROUND = 20
#: How often a block of the statement stream repeats a hot statement.
HOT_REPEAT = 5
#: The synthetic training queries keep one structure for every --seed
#: (only the data they are drawn against changes): the advisor's run
#: time is super-linear in the number of distinct predicate paths, and a
#: seed-dependent path sample moved ``advise_s`` by +-25 % between seeds.
SYNTHETIC_STRUCTURE_SEED = 13

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


@dataclass(frozen=True)
class Profile:
    """Sizes of one workload; see the table in ``README.md``."""

    name: str
    why: str
    #: XMark ``<site>`` documents loaded in bulk (about 15 KB of text each).
    xmark_docs: int
    #: Scale of the co-resident TPoX collections (0 = none).
    tpox_scale: float
    #: Synthetic two-predicate queries added to the training workload.
    synthetic_queries: int
    #: ``recommend()`` calls after the unconstrained one: (share of the
    #: all-basic-candidates size used as disk budget, search algorithm).
    sweep: Tuple[Tuple[float, str], ...]
    #: Write rounds, and after how many of them ``run_cycle()`` runs.
    write_rounds: int
    tune_every: int
    #: Fixed statements of the stream, the share of the stream that
    #: instead carries a literal never seen before, and the number of
    #: blocks per serving phase (the first one is the untimed warm-up).
    pool_size: int
    fresh_share: float
    blocks: int
    #: Distinct statements also run through the interpretive evaluator
    #: by the output checks.
    interpretive_sample: int

    def smoke(self) -> "Profile":
        """Sizes for the self-tests only; smoke numbers are never recorded."""
        return replace(
            self, xmark_docs=8, tpox_scale=0.04 if self.tpox_scale else 0.0,
            synthetic_queries=min(self.synthetic_queries, 2),
            write_rounds=2, tune_every=2,
            pool_size=min(self.pool_size, 40), blocks=2,
            interpretive_sample=10)


_FULL_SWEEP = tuple((share, algorithm)
                    for share in (0.1, 0.25, 0.5, 1.0)
                    for algorithm in (GREEDY, TOP_DOWN))

PROFILES: Dict[str, Profile] = {profile.name: profile for profile in (
    Profile(
        name="xmark_pipeline",
        why="The paper's offline loop on the largest data: parse, the three "
            "O(nodes) builds and the budget sweep own the time; serving is "
            "the 26 benchmark queries only, writes are few.",
        xmark_docs=60, tpox_scale=0.0, synthetic_queries=0,
        sweep=_FULL_SWEEP, write_rounds=2, tune_every=2,
        pool_size=26, fresh_share=0.0, blocks=16,
        interpretive_sample=26),
    Profile(
        name="advisor_scaling",
        why="Advisor run time against workload size: a training workload "
            "grown with synthetic two-predicate queries makes generalization "
            "and what-if costing own the time; data and streams are small.",
        xmark_docs=30, tpox_scale=0.0, synthetic_queries=8,
        sweep=((0.25, GREEDY), (0.25, TOP_DOWN)),
        write_rounds=2, tune_every=2,
        pool_size=34, fresh_share=0.25, blocks=7,
        interpretive_sample=34),
    Profile(
        name="query_serving",
        why="Read path on co-resident XMark and TPoX: a long stream, 70 % "
            "drawn (skewed) from 200 fixed statements and 30 % with fresh "
            "literals (plan-cache hits and misses), served with and without "
            "the indexes.",
        xmark_docs=30, tpox_scale=0.15, synthetic_queries=0,
        sweep=((0.25, GREEDY), (1.0, GREEDY), (1.0, TOP_DOWN)),
        write_rounds=2, tune_every=2,
        pool_size=200, fresh_share=0.3, blocks=4,
        interpretive_sample=60),
    Profile(
        name="ingest_tune",
        why="Writes beside reads: many rounds of document adds and removes "
            "with live indexes (delta path, index catch-up, per-document "
            "parsing); the query mix shifts half-way, so the controller "
            "re-advises.",
        xmark_docs=30, tpox_scale=0.0, synthetic_queries=0,
        sweep=((0.25, GREEDY), (1.0, GREEDY), (1.0, TOP_DOWN)),
        write_rounds=6, tune_every=2,
        pool_size=60, fresh_share=0.1, blocks=5,
        interpretive_sample=40),
)}


@dataclass(frozen=True)
class WriteRound:
    """Documents to add to the ``xmark`` collection, then ids to remove."""

    adds: Tuple[str, ...]
    removes: Tuple[int, ...]
    #: Statements run after the round's barrier query.
    stream: Tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    profile: Profile
    seed: int
    #: Collection name -> document texts, in load order.
    collections: Dict[str, List[str]]
    #: Training workload: (statement text, frequency).
    training: List[Tuple[str, float]]
    rounds: List[WriteRound]
    #: Statement run right after each round's writes.
    barrier: str
    #: Fixed statements the stream draws from.
    pool: List[str]
    #: Bytes of the document texts loaded in bulk.
    loaded_bytes: int
    sha256: str

    def final_collections(self) -> Dict[str, List[str]]:
        """Document texts after every write round: what a full rebuild loads."""
        final = {name: list(texts) for name, texts in self.collections.items()}
        xmark = final["xmark"]
        for write_round in self.rounds:
            xmark.extend(write_round.adds)
            for doc_id in write_round.removes:
                del xmark[doc_id]
        return final

    def stream(self, repeat: int) -> List[List[str]]:
        """The statement stream of one repeat, as blocks of one composition.

        Every block holds each pool statement once, the hot ones (the
        first tenth of the pool) ``HOT_REPEAT`` times, and the profile's
        share of range statements with literals never seen before; only
        the order inside a block and the fresh literals are drawn, per
        repeat, so a statement that is new in the stream is new to the
        process too, whatever it caches.  Blocks being alike is what
        lets a serving metric be a median over blocks.
        """
        profile = self.profile
        rng = random.Random(f"{self.seed}:{profile.name}:stream:{repeat}")
        fixed = self.pool + self.pool[:max(1, len(self.pool) // 10)] * (HOT_REPEAT - 1)
        fresh = round(len(fixed) * profile.fresh_share / (1.0 - profile.fresh_share))
        tpox = "order" in self.collections
        blocks = []
        for _ in range(profile.blocks):
            block = fixed + [_range_statement(rng, index, tpox)
                             for index in range(fresh)]
            rng.shuffle(block)
            blocks.append(block)
        return blocks


# ----------------------------------------------------------------------
# Statement templates
# ----------------------------------------------------------------------
# Which template and region a statement uses depends on its index only,
# never on the seed: the seed draws the literals.  A seed-dependent mix
# of cheap and expensive statements moved the serving metrics by 25 %.
#: (statement with ``{region}`` and ``{x}``, value range of the literal).
_XMARK_RANGES = (
    ('for $i in doc("xmark.xml")/site/regions/{region}/item '
     'where $i/price > {x} return $i/name', 5, 500),
    ('for $i in doc("xmark.xml")//item where $i/price > {x} return $i/name', 5, 500),
    ('for $i in doc("xmark.xml")/site/regions/{region}/item '
     'where $i/quantity > 7 and $i/price > {x} return $i/name', 5, 500),
    ('SELECT 1 FROM xmark WHERE XMLEXISTS(\'$d/site/closed_auctions/'
     'closed_auction[price >= {x}]\' PASSING doc AS "d")', 5, 800),
    ('for $p in doc("xmark.xml")/site/people/person '
     'where $p/profile/@income > {x} return $p/name', 9500, 250000),
    ('for $a in doc("xmark.xml")/site/open_auctions/open_auction '
     'where $a/current > {x} return $a/itemref', 1, 320),
)
_TPOX_RANGES = (
    ('for $o in doc("order.xml")/FIXML/Order '
     'where $o/OrdQty/@Qty > {x} return $o/Instrmt', 10, 5000),
    ('for $s in doc("security.xml")/Security '
     'where $s/Price/LastTrade > {x} return $s/Symbol', 1, 900),
    ('for $c in doc("custacc.xml")/Customer '
     'where $c/Accounts/Account/@balance > {x} return $c/Name/LastName', 100, 2000000),
)


def _range_statement(rng: random.Random, index: int, tpox: bool) -> str:
    """A range statement whose literal has not been seen before: a
    selective threshold (the upper 40 % of the value range) with enough
    digits that two draws practically never collide."""
    templates = _XMARK_RANGES + _TPOX_RANGES if tpox else _XMARK_RANGES
    template, low, high = templates[index % len(templates)]
    threshold = low + (0.6 + 0.4 * rng.random()) * (high - low)
    return template.format(region=_REGIONS[index % len(_REGIONS)],
                           x=f"{threshold:.4f}")


def _lookup_statement(rng: random.Random, index: int, xmark_docs: int,
                      tpox: Optional[TpoxConfig]) -> str:
    """An id lookup against a key that exists in the loaded data."""
    person = f"person{rng.randrange(xmark_docs)}_{rng.randrange(8)}"
    templates = [
        lambda: (f'for $p in doc("xmark.xml")/site/people/person '
                 f'where $p/@id = "{person}" return $p/name'),
        lambda: (f'for $c in doc("xmark.xml")/site/closed_auctions/closed_auction '
                 f'where $c/buyer/@person = "{person}" return $c/price'),
    ]
    if tpox is not None:
        templates += [
            lambda: ('SELECT 1 FROM "order" WHERE XMLEXISTS(\'$d/FIXML/Order[@ID = '
                     f'"103{rng.randrange(tpox.order_count()):06d}"]\' PASSING doc AS "d")'),
            lambda: ('SELECT 1 FROM custacc WHERE XMLEXISTS(\'$d/Customer[@id = '
                     f'"{rng.randrange(tpox.customer_count()):07d}"]\' PASSING doc AS "d")'),
            lambda: (f'for $s in doc("security.xml")/Security where $s/Symbol = '
                     f'"SYM{rng.randrange(tpox.security_count()):04d}" '
                     f'return $s/Price/LastTrade'),
        ]
    return templates[index % len(templates)]()


# ----------------------------------------------------------------------
def generate(profile: Profile, seed: int) -> Inputs:
    """Make every input of ``profile`` from ``seed``."""
    rng = random.Random(f"{seed}:{profile.name}")
    added = profile.write_rounds * ADDS_PER_ROUND
    source = generate_xmark_database(
        XMarkConfig(seed=seed, documents=profile.xmark_docs + added))
    texts = [serialize(document) for document in source.collection("xmark")]
    collections = {"xmark": texts[:profile.xmark_docs]}
    to_add = texts[profile.xmark_docs:]

    training = [(s.text, s.frequency) for s in xmark_query_workload()]
    unseen = [s.text for s in xmark_unseen_queries()]
    tpox_config = None
    if profile.tpox_scale:
        tpox_config = TpoxConfig(scale=profile.tpox_scale, seed=seed)
        tpox = generate_tpox_database(tpox_config)
        for collection in tpox.collections:
            collections[collection.name] = [serialize(d) for d in collection]
        training += [(s.text, s.frequency) for s in tpox_query_workload()]
    if profile.synthetic_queries:
        generator = SyntheticWorkloadGenerator(source, seed=SYNTHETIC_STRUCTURE_SEED)
        training += [(s.text, s.frequency) for s in generator.generate(
            profile.synthetic_queries, predicates_per_query=2)]

    # The query mix shifts from the training to the unseen templates at
    # the half-way round, which is what makes the controller re-advise.
    rounds: List[WriteRound] = []
    size = profile.xmark_docs
    train_texts = [text for text, _ in training]
    for index in range(profile.write_rounds):
        adds = tuple(to_add[index * ADDS_PER_ROUND:(index + 1) * ADDS_PER_ROUND])
        size += len(adds)
        # Always the middle document: a removal slides the keys of every
        # later document down, so a seeded position moved the write cost.
        removes = []
        for _ in range(REMOVES_PER_ROUND):
            removes.append(size // 2)
            size -= 1
        mix = train_texts if index < profile.write_rounds / 2 else unseen
        rounds.append(WriteRound(
            adds=adds, removes=tuple(removes),
            stream=tuple(mix[i % len(mix)] for i in range(STREAM_PER_ROUND))))

    # The pool starts with the benchmark's own queries (they are the hot
    # ones); the rest is id lookups and range statements in equal parts.
    pool = (train_texts + unseen)[:profile.pool_size]
    for index in range(len(pool), profile.pool_size):
        pool.append(_lookup_statement(rng, index // 2, profile.xmark_docs, tpox_config)
                    if index % 2 else
                    _range_statement(rng, index // 2, tpox_config is not None))

    digest = hashlib.sha256()
    for name in sorted(collections):
        for text in collections[name]:
            digest.update(text.encode())
    for text in to_add + train_texts + pool:
        digest.update(text.encode())
    digest.update(repr([r.removes for r in rounds]).encode())
    inputs = Inputs(profile=profile, seed=seed, collections=collections,
                    training=training, rounds=rounds, barrier=train_texts[0],
                    pool=pool, sha256="",
                    loaded_bytes=sum(len(text.encode())
                                     for texts in collections.values()
                                     for text in texts))
    for block in inputs.stream(0):
        digest.update("\n".join(block).encode())
    return replace(inputs, sha256=digest.hexdigest())
