"""Convert practice graphs into formal policy documents (ODRL, psDToU).

Term mappings live in a profile file, not in code: the practice-type to
ODRL action table, the relation-role to party-function table, and the
psDToU vocabulary IRIs are all profile entries with shipped defaults.

ODRL expansion is cartesian per data target: a practice with several
data links becomes one permission per data class, each carrying all of
the practice's purpose constraints.  Practices without data links, and
practice types without an action mapping, are skipped and reported,
never silently dropped; a policy with none left gets no ODRL Set.  Data
is identified by its class IRI.  `convert` reads each graph's practices
once, through `graph.policy_practices`, and writes both formats from
that one walk.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from . import Error
from .graph import NODE, PRACTICE_CLASSES, STANDARD_PREFIXES, Practice, _digest, policy_practices
from .rdfio import RDF_TYPE, BNode, Graph, IRI, _writable_iri
from .vocab import ACTIONS, ROLES

ODRL = "http://www.w3.org/ns/odrl/2/"

ODRL_SET = IRI(ODRL + "Set")
ODRL_PERMISSION_CLASS = IRI(ODRL + "Permission")
ODRL_PERMISSION = IRI(ODRL + "permission")
ODRL_ACTION = IRI(ODRL + "action")
ODRL_TARGET = IRI(ODRL + "target")
ODRL_CONSTRAINT = IRI(ODRL + "constraint")
ODRL_LEFT_OPERAND = IRI(ODRL + "leftOperand")
ODRL_OPERAND_PURPOSE = IRI(ODRL + "purpose")
ODRL_OPERATOR = IRI(ODRL + "operator")
ODRL_IS_A = IRI(ODRL + "isA")
ODRL_RIGHT_OPERAND = IRI(ODRL + "rightOperand")
# the practice graph's prefixes that both converters' outputs bind too
_SOURCE_PREFIXES = ("ppa", "dpv", "dpvpd")


class ConversionError(Error):
    pass


# the psDToU entries `dtou_iri` reads
PSDTOU_KEYS = ("namespace", "app_policy_class", "input_spec_class", "sharing_class",
               "has_input", "has_sharing", "data", "purpose", "recipient_type")
# the keys each mapping table can match: a practice's `type_key`, and a party role
PROFILE_KEYS = {
    "action_map": ("practice type", {*PRACTICE_CLASSES, *(t.name for t in ACTIONS if not t.ppa)}),
    "role_map": ("party role", {term.name for term in ROLES if term.target == "party"}),
}


@dataclass(frozen=True)
class ConversionProfile:
    """Term mapping tables for formal policy output.

    action_map keys are practice class local names (DataPractice,
    DataCollectionUse, ...) or subtype annotations of plain DataPractice
    nodes (storage_retention_deletion, ...), role_map keys party roles:
    `PROFILE_KEYS`.  The only data identifier strategy is the data class IRI.
    """
    action_map: dict[str, str]
    role_map: dict[str, str]
    psdtou: dict[str, str]

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ConversionProfile":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConversionError(f"cannot load conversion profile {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConversionError(f"profile {path} does not hold a JSON object")
        for key in ("action_map", "role_map", "psdtou"):
            table = payload.get(key)
            if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
                raise ConversionError(f"profile {path}: {key!r} is missing or not an object "
                                      "of strings")
            for entry, value in table.items():
                if not _writable_iri(value):
                    raise ConversionError(
                        f"profile {path}: {key}[{entry!r}] = {value!r} cannot be written to "
                        "Turtle (it holds whitespace, a backslash or one of <>\"{}|^`)")
        missing = [key for key in PSDTOU_KEYS if key not in payload["psdtou"]]
        if missing:
            raise ConversionError(f"profile {path}: 'psdtou' is missing {', '.join(missing)}")
        return cls(
            action_map=dict(payload["action_map"]),
            role_map=dict(payload["role_map"]),
            psdtou=dict(payload["psdtou"]),
        )

    @classmethod
    def default(cls) -> "ConversionProfile":
        return cls.load(Path(__file__).parent / "data" / "profile_default.json")

    def unknown_keys(self) -> list[str]:
        """A note on each `action_map` or `role_map` key that no practice can match."""
        return [f"{table} key {key!r} names no {what}"
                for table, (what, valid) in PROFILE_KEYS.items()
                for key in getattr(self, table) if key not in valid]

    def dtou_iri(self, key: str) -> IRI:
        return IRI(self.psdtou["namespace"] + self.psdtou[key])


@dataclass
class ConversionReport:
    unmapped_types: list[str] = field(default_factory=list)
    skipped_practices: list[str] = field(default_factory=list)
    permissions: int = 0
    input_specs: int = 0
    sharing_entries: int = 0

    def to_dict(self) -> dict:
        return {
            "permissions": self.permissions,
            "input_specs": self.input_specs,
            "sharing_entries": self.sharing_entries,
            "unmapped_types": sorted(set(self.unmapped_types)),
            "skipped_practices": list(self.skipped_practices),
        }


Converted = tuple[Graph, ConversionReport]


def convert(g: Graph, profile: ConversionProfile) -> tuple[Converted, Converted]:
    """The ODRL graph and the psDToU graph of `g`, each with its report.

    One walk over `policy_practices(g)` writes, per PrivacyPolicy node, an
    ODRL policy set (one permission per mapped practice and data class)
    and a psDToU app policy: one input spec per distinct data class used
    by any practice, carrying the purposes of the practices using it, and
    one sharing entry (recipient party type plus shared data) per sharing
    practice.
    """
    source = {prefix: STANDARD_PREFIXES[prefix] for prefix in _SOURCE_PREFIXES}
    odrl = Graph(prefixes={"odrl": ODRL, **source})
    dtou = Graph(prefixes={"dtou": profile.psdtou["namespace"], **source})
    odrl_report, dtou_report = ConversionReport(), ConversionReport()
    rdf_type = IRI(RDF_TYPE)

    for policy, practices in policy_practices(g):
        policy_set = IRI(NODE + "odrl-" + _digest(str(policy)))
        app = IRI(NODE + "dtou-" + _digest(str(policy)))
        dtou.add(app, rdf_type, profile.dtou_iri("app_policy_class"))
        by_data: dict[str, list[Practice]] = {}
        for practice in practices:
            for data_iri in practice.data:
                by_data.setdefault(data_iri.value, []).append(practice)
            shared = practice.class_name == "ThirdPartySharingDisclosure"
            if shared:
                snode = BNode("sharing-" + _digest(str(app), str(practice.node)))
                dtou_report.sharing_entries += 1
                dtou.add(app, profile.dtou_iri("has_sharing"), snode)
                dtou.add(snode, rdf_type, profile.dtou_iri("sharing_class"))
                for party in practice.parties["DATA_SHARED_WITH"]:
                    for party_type in g.objects(party, rdf_type):
                        dtou.add(snode, profile.dtou_iri("recipient_type"), party_type)
                for data_iri in practice.data:
                    dtou.add(snode, profile.dtou_iri("data"), data_iri)
            if not practice.data:
                dtou_report.skipped_practices.append(f"{practice.node!r}: no data links")

            action = profile.action_map.get(practice.type_key)
            if action is None:      # for ODRL only unmapped, data links or not
                odrl_report.unmapped_types.append(practice.type_key)
                odrl_report.skipped_practices.append(
                    f"{practice.node!r}: unmapped type {practice.type_key}")
                continue
            if not practice.data:
                odrl_report.skipped_practices.append(f"{practice.node!r}: no data links")
                continue
            for data_iri in practice.data:
                perm = BNode("perm-" + _digest(str(practice.node), data_iri.value))
                odrl_report.permissions += 1
                odrl.add(policy_set, rdf_type, ODRL_SET)    # with its rules, so no Set is empty
                odrl.add(policy_set, ODRL_PERMISSION, perm)
                odrl.add(perm, rdf_type, ODRL_PERMISSION_CLASS)
                odrl.add(perm, ODRL_ACTION, IRI(action))
                odrl.add(perm, ODRL_TARGET, data_iri)
                for purpose in practice.purposes:
                    cnode = BNode("constraint-" + _digest(str(practice.node), data_iri.value, purpose.value))
                    odrl.add(perm, ODRL_CONSTRAINT, cnode)
                    odrl.add(cnode, ODRL_LEFT_OPERAND, ODRL_OPERAND_PURPOSE)
                    odrl.add(cnode, ODRL_OPERATOR, ODRL_IS_A)
                    odrl.add(cnode, ODRL_RIGHT_OPERAND, purpose)
                for role, parties in practice.parties.items():
                    role_iri = profile.role_map.get(role)
                    if role_iri and (shared or role != "DATA_SHARED_WITH"):
                        for party in parties:
                            odrl.add(perm, IRI(role_iri), party)
                            for p, o in g.predicate_objects(party):
                                odrl.add(party, p, o)

        for data_value in sorted(by_data):
            ispec = BNode("input-" + _digest(str(app), data_value))
            dtou_report.input_specs += 1
            dtou.add(app, profile.dtou_iri("has_input"), ispec)
            dtou.add(ispec, rdf_type, profile.dtou_iri("input_spec_class"))
            dtou.add(ispec, profile.dtou_iri("data"), IRI(data_value))
            for practice in by_data[data_value]:
                for purpose in practice.purposes:
                    dtou.add(ispec, profile.dtou_iri("purpose"), purpose)
    return (odrl, odrl_report), (dtou, dtou_report)


# views of `convert` kept for the tests and `perfbench/layers.py`
def to_odrl(g: Graph, profile: Optional[ConversionProfile] = None) -> Converted:
    return convert(g, profile or ConversionProfile.default())[0]


def to_psdtou(g: Graph, profile: Optional[ConversionProfile] = None) -> Converted:
    return convert(g, profile or ConversionProfile.default())[1]
