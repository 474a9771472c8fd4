"""TPoX-style transaction-processing database, queries, and updates.

TPoX [5] models a financial (brokerage) application over FIXML messages:
many small documents in three collections -- orders, securities, and
customer accounts -- queried by selective SQL/XML lookups and modified
by a substantial update stream.  For the advisor the salient properties
are (a) value-selective predicates on attributes, (b) several distinct
document schemas in one database, and (c) an update-heavy statement mix
that makes index maintenance cost matter (experiment E6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.storage.document_store import XmlDatabase
from repro.xmldb.nodes import DocumentNode, build_document
from repro.xquery.model import Workload, WorkloadStatement

_CURRENCIES = ["USD", "EUR", "JPY", "CAD", "GBP"]
_SECTORS = ["Technology", "Energy", "Finance", "Healthcare", "Utilities"]
_ORDER_SIDES = ["1", "2"]  # FIX: 1 = buy, 2 = sell
_ORDER_TYPES = ["1", "2", "3"]  # market, limit, stop
_COUNTRIES = ["US", "CA", "DE", "JP", "BR", "EG"]


@dataclass
class TpoxConfig:
    """Scaling knobs for the TPoX-style generator."""

    scale: float = 0.05
    seed: int = 7
    orders: Optional[int] = None
    securities: Optional[int] = None
    customers: Optional[int] = None

    def order_count(self) -> int:
        if self.orders is not None:
            return max(1, self.orders)
        return max(20, int(round(600 * self.scale)))

    def security_count(self) -> int:
        if self.securities is not None:
            return max(1, self.securities)
        return max(10, int(round(200 * self.scale)))

    def customer_count(self) -> int:
        if self.customers is not None:
            return max(1, self.customers)
        return max(10, int(round(150 * self.scale)))


# ----------------------------------------------------------------------
# Data generation
# ----------------------------------------------------------------------
def generate_tpox_database(config: Optional[TpoxConfig] = None,
                           database_name: str = "tpox") -> XmlDatabase:
    """Generate the three TPoX-style collections: order, security, custacc."""
    config = config or TpoxConfig()
    rng = random.Random(config.seed)
    database = XmlDatabase(database_name)

    orders = database.create_collection("order")
    symbols = [f"SYM{i:04d}" for i in range(config.security_count())]
    for order_index in range(config.order_count()):
        orders.add_document(_generate_order(rng, order_index, symbols,
                                            config.customer_count()))

    securities = database.create_collection("security")
    for security_index, symbol in enumerate(symbols):
        securities.add_document(_generate_security(rng, security_index, symbol))

    customers = database.create_collection("custacc")
    for customer_index in range(config.customer_count()):
        customers.add_document(_generate_customer(rng, customer_index))
    return database


def _generate_order(rng: random.Random, order_index: int,
                    symbols: Sequence[str], customer_count: int) -> DocumentNode:
    doc, fixml = build_document("FIXML", uri=f"order{order_index}.xml")
    order = fixml.add_element("Order", attributes={
        "ID": f"103{order_index:06d}",
        "Side": rng.choice(_ORDER_SIDES),
        "TrdDt": _random_date(rng),
        "Acct": f"{rng.randint(0, customer_count - 1):07d}",
        "Typ": rng.choice(_ORDER_TYPES),
    })
    order.add_element("Instrmt", attributes={
        "Sym": rng.choice(symbols),
        "ID": f"{rng.randint(100000000, 999999999)}",
        "Exch": rng.choice(["NYSE", "NASDAQ", "TSE", "LSE"]),
    })
    order.add_element("OrdQty", attributes={"Qty": str(rng.randint(10, 5000))})
    order.add_element("Pxs", attributes={"Px": f"{rng.uniform(1, 900):.2f}",
                                         "Ccy": rng.choice(_CURRENCIES)})
    doc.assign_node_ids()
    return doc


def _generate_security(rng: random.Random, security_index: int,
                       symbol: str) -> DocumentNode:
    doc, security = build_document("Security", uri=f"security{security_index}.xml")
    security.add_element("Symbol", symbol)
    security.add_element("Name", f"Company {security_index}")
    security.add_element("SecurityType", rng.choice(["Stock", "Bond", "Mutual Fund"]))
    security.add_element("Sector", rng.choice(_SECTORS))
    security_info = security.add_element("SecurityInformation")
    security_info.add_element("PE", f"{rng.uniform(4, 60):.1f}")
    security_info.add_element("Yield", f"{rng.uniform(0, 9):.2f}")
    price = security.add_element("Price")
    price.add_element("LastTrade", f"{rng.uniform(1, 900):.2f}")
    price.add_element("Ask", f"{rng.uniform(1, 900):.2f}")
    price.add_element("Bid", f"{rng.uniform(1, 900):.2f}")
    doc.assign_node_ids()
    return doc


def _generate_customer(rng: random.Random, customer_index: int) -> DocumentNode:
    doc, customer = build_document("Customer", uri=f"custacc{customer_index}.xml")
    customer.set_attribute("id", f"{customer_index:07d}")
    name = customer.add_element("Name")
    name.add_element("FirstName", f"First{customer_index}")
    name.add_element("LastName", f"Last{customer_index}")
    customer.add_element("CountryOfResidence", rng.choice(_COUNTRIES))
    customer.add_element("PremiumCustomer", rng.choice(["true", "false"]))
    accounts = customer.add_element("Accounts")
    for account_index in range(rng.randint(1, 3)):
        account = accounts.add_element("Account", attributes={
            "id": f"{customer_index:05d}{account_index:02d}",
            "balance": f"{rng.uniform(100, 2000000):.2f}",
        })
        account.add_element("Currency", rng.choice(_CURRENCIES))
        account.add_element("OpeningDate", _random_date(rng))
        positions = account.add_element("Positions")
        for _ in range(rng.randint(0, 4)):
            position = positions.add_element("Position")
            position.add_element("Symbol", f"SYM{rng.randint(0, 199):04d}")
            position.add_element("Quantity", str(rng.randint(1, 10000)))
    doc.assign_node_ids()
    return doc


def _random_date(rng: random.Random) -> str:
    return f"{rng.randint(2004, 2007)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


# ----------------------------------------------------------------------
# Query and update workloads
# ----------------------------------------------------------------------
def tpox_query_workload(name: str = "tpox-queries") -> Workload:
    """The read side of the TPoX-style workload (SQL/XML + XQuery)."""
    workload = Workload(name=name)
    statements: List[Tuple[str, float]] = [
        # get_order: look up an order by id.
        ('SELECT 1 FROM "order" WHERE XMLEXISTS('
         '\'$d/FIXML/Order[@ID = "103000042"]\' PASSING doc AS "d")', 5.0),
        # Orders for one account (selective attribute equality).
        ('SELECT 1 FROM "order" WHERE XMLEXISTS('
         '\'$d/FIXML/Order[@Acct = "0000007"]\' PASSING doc AS "d")', 4.0),
        # Sell orders for a symbol.
        ('SELECT 1 FROM "order" WHERE XMLEXISTS('
         '\'$d/FIXML/Order[@Side = "2"][Instrmt/@Sym = "SYM0001"]\' '
         'PASSING doc AS "d")', 3.0),
        # Large orders (range on quantity attribute).
        ('for $o in doc("order.xml")/FIXML/Order '
         'where $o/OrdQty/@Qty > 4500 return $o/Instrmt', 2.0),
        # get_security by symbol.
        ('for $s in doc("security.xml")/Security '
         'where $s/Symbol = "SYM0005" return $s/Price/LastTrade', 4.0),
        # Securities in a sector with a high yield.
        ('for $s in doc("security.xml")/Security '
         'where $s/Sector = "Technology" and $s/SecurityInformation/Yield > 7 '
         'return $s/Name', 2.0),
        # Securities trading above a price.
        ('for $s in doc("security.xml")/Security '
         'where $s/Price/LastTrade > 800 return $s/Symbol', 2.0),
        # Customer by id (attribute on the root element).
        ('SELECT 1 FROM custacc WHERE XMLEXISTS('
         '\'$d/Customer[@id = "0000012"]\' PASSING doc AS "d")', 4.0),
        # Accounts with a very large balance.
        ('for $c in doc("custacc.xml")/Customer '
         'where $c/Accounts/Account/@balance > 1800000 return $c/Name/LastName', 2.0),
        # Premium customers in a country.
        ('for $c in doc("custacc.xml")/Customer '
         'where $c/CountryOfResidence = "DE" and $c/PremiumCustomer = "true" '
         'return $c/Name/LastName', 2.0),
    ]
    for text, frequency in statements:
        workload.add(WorkloadStatement(text=text, frequency=frequency))
    return workload


def tpox_update_statements(frequency: float = 1.0) -> List[WorkloadStatement]:
    """The write side: order inserts/deletes and account value updates.

    Expressed in the XQuery Update Facility subset the normalizer
    understands; each statement carries the given frequency so callers
    can dial the update ratio up and down (experiment E6).
    """
    updates = [
        'insert node <Order ID="999000001" Side="1"><Instrmt Sym="SYM0002"/>'
        '<OrdQty Qty="100"/></Order> into /FIXML',
        'delete node /FIXML/Order[@ID = "103000017"]',
        'replace value of node /FIXML/Order/OrdQty/@Qty with "250"',
        'replace value of node /Customer/Accounts/Account/@balance with "50000.00"',
        'insert node <Position><Symbol>SYM0009</Symbol><Quantity>10</Quantity>'
        '</Position> into /Customer/Accounts/Account/Positions',
        'replace value of node /Security/Price/LastTrade with "123.45"',
    ]
    return [WorkloadStatement(text=text, frequency=frequency) for text in updates]


def tpox_workload(update_ratio: float = 0.3, name: str = "tpox") -> Workload:
    """The full TPoX-style workload with a configurable update share.

    ``update_ratio`` is the fraction of the workload's total statement
    frequency carried by update statements (0.0 = read-only, 0.9 = very
    update-heavy).  TPoX itself runs roughly 30 % updates.
    """
    if not 0.0 <= update_ratio < 1.0:
        raise ValueError("update_ratio must be in [0, 1)")
    queries = tpox_query_workload(name=name)
    if update_ratio <= 0.0:
        return queries
    query_frequency = queries.total_frequency
    update_statements = tpox_update_statements()
    # Choose the per-update frequency so updates carry the requested share.
    target_update_frequency = query_frequency * update_ratio / (1.0 - update_ratio)
    per_statement = target_update_frequency / len(update_statements)
    workload = Workload(name=name)
    for statement in queries:
        workload.add(WorkloadStatement(text=statement.text,
                                       frequency=statement.frequency,
                                       language=statement.language))
    for statement in update_statements:
        workload.add(WorkloadStatement(text=statement.text, frequency=per_statement))
    return workload
