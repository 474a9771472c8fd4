"""XMark-style auction database generator and query workload.

The XMark benchmark [7] models an internet auction site: a single large
document rooted at ``<site>`` with six geographic regions of items,
registered people with profiles, open and closed auctions, and a
category hierarchy.  This generator reproduces the schema shape and the
value distributions that matter to an index advisor:

* items spread unevenly across regions (some regions have many more
  items, so generalizing over regions actually pays);
* numeric leaf values (``quantity``, ``price``, ``age``, ``@income``,
  ``current``, ``increase``) with ranges wide enough for selective range
  predicates;
* string leaves (``payment``, ``location``, ``name``, ``city``,
  ``country``, ``creditcard``) with small and large domains;
* attributes used as keys (``@id``, ``@person``, ``@item``,
  ``@category``, ``@income``).

Instead of one giant document we generate many ``<site>`` documents of
moderate size (DB2 pureXML stores one XML value per row, and TPoX-style
many-document layouts are how XML columns are used in practice); the
advisor and optimizer are insensitive to that choice because they only
see path statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.document_store import XmlDatabase
from repro.xmldb.nodes import DocumentNode, ElementNode, build_document
from repro.xquery.model import Workload, WorkloadStatement

#: The six XMark regions, with relative item weights (namerica and europe
#: carry most of the items, as in the original generator).
REGIONS: List[Tuple[str, float]] = [
    ("africa", 0.55),
    ("asia", 1.0),
    ("australia", 0.45),
    ("europe", 2.2),
    ("namerica", 3.0),
    ("samerica", 0.8),
]

_PAYMENTS = ["Creditcard", "Cash", "Money order", "Personal Check"]
_COUNTRIES = ["United States", "Germany", "Egypt", "Japan", "Brazil", "Canada", "France"]
_CITIES = ["Seattle", "Toronto", "Cairo", "Berlin", "Tokyo", "Sao Paulo", "Paris", "Boston"]
_EDUCATIONS = ["High School", "College", "Graduate School", "Other"]
_ITEM_WORDS = ["vintage", "rare", "antique", "modern", "classic", "signed",
               "limited", "original", "restored", "imported"]
_NOUNS = ["lamp", "guitar", "painting", "watch", "camera", "book", "vase",
          "coin", "stamp", "chair"]


@dataclass
class XMarkConfig:
    """Scaling knobs for the XMark-style generator.

    ``scale`` plays the role of XMark's scale factor: the default 0.05
    produces a database of a few hundred documents / tens of thousands of
    nodes, which keeps the test suite fast; benchmarks use larger values.
    """

    scale: float = 0.05
    seed: int = 42
    #: Documents to generate (each is one <site> instance).
    documents: Optional[int] = None
    #: Items per region weight unit per document.
    items_per_region_unit: int = 2
    #: People per document.
    people_per_document: int = 8
    #: Open / closed auctions per document.
    open_auctions_per_document: int = 6
    closed_auctions_per_document: int = 4
    #: Categories per document.
    categories_per_document: int = 4

    def document_count(self) -> int:
        if self.documents is not None:
            return max(1, self.documents)
        return max(4, int(round(200 * self.scale)))


# ----------------------------------------------------------------------
# Data generation
# ----------------------------------------------------------------------
def generate_xmark_database(config: Optional[XMarkConfig] = None,
                            database_name: str = "xmark") -> XmlDatabase:
    """Generate an XMark-style database with a single ``xmark`` collection."""
    config = config or XMarkConfig()
    rng = random.Random(config.seed)
    database = XmlDatabase(database_name)
    collection = database.create_collection("xmark")
    for doc_index in range(config.document_count()):
        collection.add_document(_generate_site_document(rng, config, doc_index))
    return database


def _generate_site_document(rng: random.Random, config: XMarkConfig,
                            doc_index: int) -> DocumentNode:
    doc, site = build_document("site", uri=f"xmark-{doc_index}.xml")
    _generate_regions(rng, config, site, doc_index)
    people = _generate_people(rng, config, site, doc_index)
    items = _collect_item_ids(site)
    _generate_open_auctions(rng, config, site, doc_index, people, items)
    _generate_closed_auctions(rng, config, site, doc_index, people, items)
    _generate_categories(rng, config, site, doc_index)
    doc.assign_node_ids()
    return doc


def _generate_regions(rng: random.Random, config: XMarkConfig,
                      site: ElementNode, doc_index: int) -> None:
    regions = site.add_element("regions")
    for region_name, weight in REGIONS:
        region = regions.add_element(region_name)
        item_count = max(1, int(round(weight * config.items_per_region_unit)))
        for item_index in range(item_count):
            item_id = f"item{doc_index}_{region_name}_{item_index}"
            item = region.add_element("item", attributes={"id": item_id})
            item.add_element("location", rng.choice(_COUNTRIES))
            item.add_element("quantity", str(rng.randint(1, 10)))
            item.add_element(
                "name",
                f"{rng.choice(_ITEM_WORDS)} {rng.choice(_NOUNS)} {item_index}")
            item.add_element("payment", rng.choice(_PAYMENTS))
            item.add_element("price", f"{rng.uniform(5, 500):.2f}")
            description = item.add_element("description")
            description.add_element(
                "text",
                " ".join(rng.choice(_ITEM_WORDS) for _ in range(6)))
            item.add_element("shipping", rng.choice(
                ["Will ship internationally", "Buyer pays fixed shipping charges",
                 "Will ship only within country"]))
            item.add_element("incategory", attributes={
                "category": f"category{rng.randint(0, 9)}"})
            mailbox = item.add_element("mailbox")
            for mail_index in range(rng.randint(0, 2)):
                mail = mailbox.add_element("mail")
                mail.add_element("from", f"person{rng.randint(0, 99)}")
                mail.add_element("date", _random_date(rng))


def _generate_people(rng: random.Random, config: XMarkConfig,
                     site: ElementNode, doc_index: int) -> List[str]:
    people = site.add_element("people")
    person_ids: List[str] = []
    for person_index in range(config.people_per_document):
        person_id = f"person{doc_index}_{person_index}"
        person_ids.append(person_id)
        person = people.add_element("person", attributes={"id": person_id})
        person.add_element("name", f"Person {doc_index} {person_index}")
        person.add_element("emailaddress",
                           f"mailto:person{doc_index}.{person_index}@example.com")
        if rng.random() < 0.7:
            person.add_element("phone", f"+1 ({rng.randint(100, 999)}) "
                                        f"{rng.randint(1000000, 9999999)}")
        address = person.add_element("address")
        address.add_element("street", f"{rng.randint(1, 99)} Main St")
        address.add_element("city", rng.choice(_CITIES))
        address.add_element("country", rng.choice(_COUNTRIES))
        address.add_element("zipcode", str(rng.randint(10000, 99999)))
        profile = person.add_element("profile", attributes={
            "income": f"{rng.uniform(9500, 250000):.2f}"})
        profile.add_element("education", rng.choice(_EDUCATIONS))
        profile.add_element("age", str(rng.randint(18, 90)))
        for _ in range(rng.randint(0, 3)):
            profile.add_element("interest", attributes={
                "category": f"category{rng.randint(0, 9)}"})
        if rng.random() < 0.6:
            person.add_element("creditcard",
                               " ".join(str(rng.randint(1000, 9999)) for _ in range(4)))
    return person_ids


def _collect_item_ids(site: ElementNode) -> List[str]:
    ids: List[str] = []
    regions = site.first_child_element("regions")
    if regions is None:
        return ids
    for region in regions.element_children():
        for item in region.child_elements("item"):
            item_id = item.get_attribute("id")
            if item_id:
                ids.append(item_id)
    return ids


def _generate_open_auctions(rng: random.Random, config: XMarkConfig,
                            site: ElementNode, doc_index: int,
                            people: Sequence[str], items: Sequence[str]) -> None:
    auctions = site.add_element("open_auctions")
    for auction_index in range(config.open_auctions_per_document):
        auction = auctions.add_element("open_auction", attributes={
            "id": f"open_auction{doc_index}_{auction_index}"})
        initial = rng.uniform(1, 200)
        auction.add_element("initial", f"{initial:.2f}")
        current = initial
        for _ in range(rng.randint(1, 5)):
            bidder = auction.add_element("bidder")
            bidder.add_element("date", _random_date(rng))
            increase = rng.uniform(1, 25)
            current += increase
            bidder.add_element("increase", f"{increase:.2f}")
            bidder.add_element("personref", attributes={
                "person": rng.choice(people) if people else "person0"})
        auction.add_element("current", f"{current:.2f}")
        auction.add_element("itemref", attributes={
            "item": rng.choice(items) if items else "item0"})
        auction.add_element("seller", attributes={
            "person": rng.choice(people) if people else "person0"})
        auction.add_element("quantity", str(rng.randint(1, 5)))
        auction.add_element("type", rng.choice(["Regular", "Featured", "Dutch"]))
        interval = auction.add_element("interval")
        interval.add_element("start", _random_date(rng))
        interval.add_element("end", _random_date(rng))


def _generate_closed_auctions(rng: random.Random, config: XMarkConfig,
                              site: ElementNode, doc_index: int,
                              people: Sequence[str], items: Sequence[str]) -> None:
    auctions = site.add_element("closed_auctions")
    for auction_index in range(config.closed_auctions_per_document):
        auction = auctions.add_element("closed_auction")
        auction.add_element("seller", attributes={
            "person": rng.choice(people) if people else "person0"})
        auction.add_element("buyer", attributes={
            "person": rng.choice(people) if people else "person0"})
        auction.add_element("itemref", attributes={
            "item": rng.choice(items) if items else "item0"})
        auction.add_element("price", f"{rng.uniform(5, 800):.2f}")
        auction.add_element("date", _random_date(rng))
        auction.add_element("quantity", str(rng.randint(1, 5)))
        auction.add_element("type", rng.choice(["Regular", "Featured"]))


def _generate_categories(rng: random.Random, config: XMarkConfig,
                         site: ElementNode, doc_index: int) -> None:
    categories = site.add_element("categories")
    for category_index in range(config.categories_per_document):
        category = categories.add_element("category", attributes={
            "id": f"category{category_index}"})
        category.add_element("name", f"Category {category_index}")
        description = category.add_element("description")
        description.add_element("text", " ".join(
            rng.choice(_ITEM_WORDS) for _ in range(4)))


def _random_date(rng: random.Random) -> str:
    return f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/{rng.randint(1999, 2007)}"


# ----------------------------------------------------------------------
# Query workloads
# ----------------------------------------------------------------------
def xmark_query_workload(name: str = "xmark-training",
                         include_synthetic: bool = True) -> Workload:
    """The training workload: XMark-style queries plus synthetic additions.

    The statements are XQuery (FLWOR) and SQL/XML, matching the demo's
    mixed-language workloads.  Frequencies model a mild skew: lookup
    queries run more often than analytical ones.
    """
    workload = Workload(name=name)
    statements: List[Tuple[str, float]] = [
        # Q1-style: look up a person by id (attribute equality).
        ('for $p in doc("xmark.xml")/site/people/person '
         'where $p/@id = "person3_1" return $p/name', 4.0),
        # Q5-style: how many sold items had a price above a threshold.
        ('for $c in doc("xmark.xml")/site/closed_auctions/closed_auction '
         'where $c/price >= 400 return $c/price', 2.0),
        # Region-specific item quantity queries (the paper's running example).
        ('for $i in doc("xmark.xml")/site/regions/namerica/item '
         'where $i/quantity > 7 return $i/name', 3.0),
        ('for $i in doc("xmark.xml")/site/regions/africa/item '
         'where $i/quantity > 7 return $i/name', 2.0),
        # Region-specific price query (drives /regions/*/item/* generalization).
        ('for $i in doc("xmark.xml")/site/regions/samerica/item '
         'where $i/price > 350 return $i/name', 2.0),
        # Payment-method lookup in a single region.
        ('for $i in doc("xmark.xml")/site/regions/europe/item '
         'where $i/payment = "Creditcard" return $i/name', 2.0),
        # People with high income (attribute range predicate).
        ('for $p in doc("xmark.xml")/site/people/person '
         'where $p/profile/@income > 200000 return $p/name', 2.0),
        # Q11/Q12-style: people by age.
        ('for $p in doc("xmark.xml")/site/people/person '
         'where $p/profile/age >= 80 return $p/name', 1.0),
        # Open auctions with a high current bid.
        ('for $a in doc("xmark.xml")/site/open_auctions/open_auction '
         'where $a/current > 250 return $a/itemref', 2.0),
        # Bidder increases above a threshold (nested path predicate).
        ('for $a in doc("xmark.xml")/site/open_auctions/open_auction '
         'where $a/bidder/increase > 22 return $a/current', 1.0),
        # SQL/XML: items located in a specific country, any region.
        ('SELECT 1 FROM xmark WHERE XMLEXISTS('
         '\'$d/site/regions/asia/item[location = "Japan"]\' PASSING doc AS "d")', 2.0),
        # SQL/XML: featured open auctions.
        ('SELECT 1 FROM xmark WHERE XMLEXISTS('
         '\'$d/site/open_auctions/open_auction[type = "Featured"]\' '
         'PASSING doc AS "d")', 1.0),
        # Q14-style: descendant text search path (structural predicate).
        ('for $i in doc("xmark.xml")//item where $i/quantity = 1 '
         'return $i/description', 1.0),
        # Closed auction buyers (attribute existence + equality).
        ('for $c in doc("xmark.xml")/site/closed_auctions/closed_auction '
         'where $c/buyer/@person = "person2_0" return $c/price', 2.0),
        # Addresses in a city (string equality deeper in people subtree).
        ('for $p in doc("xmark.xml")/site/people/person '
         'where $p/address/city = "Cairo" return $p/name', 1.0),
    ]
    if include_synthetic:
        statements.extend([
            # Synthetic variations, as the demo adds to the standard queries.
            ('for $i in doc("xmark.xml")/site/regions/australia/item '
             'where $i/quantity > 9 return $i/name', 1.0),
            ('for $i in doc("xmark.xml")/site/regions/asia/item '
             'where $i/price > 450 return $i/name', 1.0),
            ('for $p in doc("xmark.xml")/site/people/person '
             'where $p/address/country = "Germany" return $p/name', 1.0),
            ('for $a in doc("xmark.xml")/site/open_auctions/open_auction '
             'where $a/initial < 5 return $a/current', 1.0),
            ('SELECT 1 FROM xmark WHERE XMLEXISTS('
             '\'$d/site/people/person[creditcard = "1234 5678 9012 3456"]\' '
             'PASSING doc AS "d")', 1.0),
        ])
    for text, frequency in statements:
        workload.add(WorkloadStatement(text=text, frequency=frequency))
    return workload


def xmark_unseen_queries(name: str = "xmark-unseen") -> Workload:
    """Held-out queries: the *same shapes* as the training workload but on
    regions/constants the training workload never mentioned.

    A configuration of query-specific indexes cannot help these; the
    generalized configurations recommended by the advisor can.  Used by
    experiments E4 and E7.
    """
    workload = Workload(name=name)
    statements: List[Tuple[str, float]] = [
        ('for $i in doc("xmark.xml")/site/regions/asia/item '
         'where $i/quantity > 6 return $i/name', 1.0),
        ('for $i in doc("xmark.xml")/site/regions/australia/item '
         'where $i/price > 300 return $i/name', 1.0),
        ('for $i in doc("xmark.xml")/site/regions/samerica/item '
         'where $i/payment = "Cash" return $i/name', 1.0),
        ('for $i in doc("xmark.xml")/site/regions/europe/item '
         'where $i/quantity > 9 return $i/name', 1.0),
        ('for $p in doc("xmark.xml")/site/people/person '
         'where $p/profile/age < 20 return $p/name', 1.0),
        ('for $i in doc("xmark.xml")/site/regions/namerica/item '
         'where $i/price > 480 return $i/name', 1.0),
    ]
    for text, frequency in statements:
        workload.add(WorkloadStatement(text=text, frequency=frequency))
    return workload
