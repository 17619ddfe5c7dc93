"""The practice vocabulary: span kinds, party and action subtypes, relation roles.

Each term is one row, and each name, synonym and brat label is written
once.  `extraction.prompts` reads its enums and repair synonyms from these
rows, `eval.gold` its brat label maps, `graph` its classes and predicates,
and `policyconv` the keys a profile can match.  The prompt texts name the
same values literally, since a prompt's bytes are part of its cache key.
Synonyms and labels are normalized (`textnorm.normalize_label`).  This
module imports nothing from the package.
"""
from __future__ import annotations

from typing import NamedTuple, Optional


class Term(NamedTuple):
    name: str                       # canonical: what the prompts ask for and the graph keeps
    synonyms: tuple[str, ...]       # answer spellings that response repair maps onto `name`
    brat: tuple[str, ...]           # brat labels that the gold maps onto `name`
    ppa: Optional[str] = None       # local name of a subtype's `ppa` class or a role's predicate
    target: Optional[str] = None    # the span kind a role links to


# the brat entity labels of each span kind; a party's subtype and role labels count too
KIND_LABELS = {"data": ("data", "dataentity"), "purpose": ("purpose", "purposeentity"),
               "party": ("party",)}

PARTIES = (
    Term("first_party", ("firstparty", "1stparty", "company", "we"),
         ("firstparty", "firstpartyentity"), "FirstParty"),
    Term("third_party", ("thirdparty", "3rdparty"), ("thirdparty", "thirdpartyentity"),
         "ThirdParty"),
    Term("user", ("user", "datasubject"), ("user",), "User"),
)

# the class of a practice whose action subtype has no class of its own
PRACTICE_CLASS = "DataPractice"
# of two subtype classes on one node, the earlier row's is the more specific
ACTIONS = (
    Term("collection_use", ("collectionuse", "collection", "collectanduse", "use",
                            "datacollection"),
         ("collectionuse", "datacollectionuse"), "DataCollectionUse"),
    Term("third_party_sharing_disclosure", ("thirdpartysharingdisclosure", "sharing",
                                            "sharingdisclosure", "disclosure", "thirdpartysharing"),
         ("thirdpartysharingdisclosure", "thirdpartycollectionuse"), "ThirdPartySharingDisclosure"),
    Term("storage_retention_deletion", ("storageretentiondeletion", "storage", "retention",
                                        "storageretention"),
         ("storageretentiondeletion", "datastorageretentiondeletion")),
    Term("security_protection", ("securityprotection", "security", "protection"),
         ("securityprotection", "datasecurityprotection")),
)

ROLES = (
    Term("HAS_DATA", ("hasdata", "data"), ("data", "datacollected", "datashared", "dataretained"),
         "hasData", "data"),
    Term("HAS_PURPOSE", ("haspurpose", "purpose"), ("purpose", "purposeargument"),
         "hasPurpose", "purpose"),
    Term("PERFORMED_BY", ("performedby", "performer", "datacollector"),
         ("datacollector", "datasharer", "dataholder", "dataprotector"), "performedBy", "party"),
    Term("DATA_PROVIDED_BY", ("dataprovidedby", "dataprovider"), ("dataprovider",),
         "dataProvidedBy", "party"),
    Term("DATA_SHARED_WITH", ("datasharedwith", "datareceiver", "recipient"), ("datareceiver",),
         "dataSharedWith", "party"),
)
