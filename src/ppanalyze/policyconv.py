"""Convert practice graphs into formal policy documents (ODRL, psDToU).

Term mappings live in a profile file, not in code: the practice-type to
ODRL action table, the relation-role to party-function table, and the
psDToU vocabulary IRIs are all profile entries with shipped defaults.

ODRL expansion is cartesian per data target: a practice with several
data links becomes one permission per data class, each carrying all of
the practice's purpose constraints.  Practices without data links, and
practice types without an action mapping, are skipped and reported,
never silently dropped.  Data is identified by its class IRI.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from . import Error
from .graph import (
    DATA_PROVIDED_BY,
    DATA_SHARED_WITH,
    HAS_DATA,
    HAS_PRACTICE,
    HAS_PURPOSE,
    NODE,
    PERFORMED_BY,
    PRACTICE_SUBTYPE,
    PRIVACY_POLICY,
    STANDARD_PREFIXES,
    _digest,
    practice_types,
)
from .rdfio import RDF_TYPE, BNode, Graph, IRI, Literal, _writable_iri

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


@dataclass(frozen=True)
class ConversionProfile:
    """Term mapping tables for formal policy output.

    action_map keys are practice class local names (DataCollectionUse,
    ThirdPartySharingDisclosure) or subtype annotations of plain
    DataPractice nodes (storage_retention_deletion, ...).  The only data
    identifier strategy is the data class IRI.
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


@dataclass(frozen=True)
class _Practice:
    node: Union[IRI, BNode]
    type_key: str              # action_map lookup key
    class_name: str
    data: tuple[IRI, ...]
    purposes: tuple[IRI, ...]
    performers: tuple = ()
    providers: tuple = ()
    recipients: tuple = ()


def _practice_view(g: Graph, policy, types: dict) -> list[_Practice]:
    out = []
    for node in sorted(g.objects(policy, HAS_PRACTICE), key=lambda t: str(t)):
        class_name = types.get(node)
        if class_name is None:
            continue
        type_key = class_name
        if class_name == "DataPractice":
            subtypes = [o.lexical for o in g.objects(node, PRACTICE_SUBTYPE)
                        if isinstance(o, Literal)]
            type_key = subtypes[0] if subtypes else "DataPractice"
        out.append(_Practice(
            node=node,
            type_key=type_key,
            class_name=class_name,
            data=tuple(o for o in g.objects(node, HAS_DATA) if isinstance(o, IRI)),
            purposes=tuple(o for o in g.objects(node, HAS_PURPOSE) if isinstance(o, IRI)),
            performers=tuple(g.objects(node, PERFORMED_BY)),
            providers=tuple(g.objects(node, DATA_PROVIDED_BY)),
            recipients=tuple(g.objects(node, DATA_SHARED_WITH)),
        ))
    return out


def to_odrl(g: Graph,
            profile: Optional[ConversionProfile] = None) -> tuple[Graph, ConversionReport]:
    """Build one ODRL policy set per PrivacyPolicy node in the graph."""
    profile = profile or ConversionProfile.default()
    out = Graph()
    out.bind("odrl", ODRL)
    for prefix in _SOURCE_PREFIXES:
        out.bind(prefix, STANDARD_PREFIXES[prefix])
    report = ConversionReport()

    types = practice_types(g)
    for policy in sorted(g.subjects_of_type(PRIVACY_POLICY), key=lambda t: str(t)):
        policy_set = IRI(NODE + "odrl-" + _digest(str(policy)))
        out.add(policy_set, IRI(RDF_TYPE), ODRL_SET)
        for practice in _practice_view(g, policy, types):
            action = profile.action_map.get(practice.type_key)
            if action is None:
                report.unmapped_types.append(practice.type_key)
                report.skipped_practices.append(f"{practice.node!r}: unmapped type {practice.type_key}")
                continue
            if not practice.data:
                report.skipped_practices.append(f"{practice.node!r}: no data links")
                continue
            for data_iri in practice.data:
                perm = BNode("perm-" + _digest(str(practice.node), data_iri.value))
                report.permissions += 1
                out.add(policy_set, ODRL_PERMISSION, perm)
                out.add(perm, IRI(RDF_TYPE), ODRL_PERMISSION_CLASS)
                out.add(perm, ODRL_ACTION, IRI(action))
                out.add(perm, ODRL_TARGET, data_iri)
                for purpose in practice.purposes:
                    cnode = BNode("constraint-" + _digest(str(practice.node), data_iri.value, purpose.value))
                    out.add(perm, ODRL_CONSTRAINT, cnode)
                    out.add(cnode, ODRL_LEFT_OPERAND, ODRL_OPERAND_PURPOSE)
                    out.add(cnode, ODRL_OPERATOR, ODRL_IS_A)
                    out.add(cnode, ODRL_RIGHT_OPERAND, purpose)
                shared = practice.class_name == "ThirdPartySharingDisclosure"
                for role, parties in (("PERFORMED_BY", practice.performers),
                                      ("DATA_PROVIDED_BY", practice.providers),
                                      ("DATA_SHARED_WITH", practice.recipients if shared else ())):
                    role_iri = profile.role_map.get(role)
                    if role_iri:
                        for party in parties:
                            out.add(perm, IRI(role_iri), party)
                            _copy_party(g, out, party)
    return out, report


def _copy_party(source: Graph, out: Graph, party) -> None:
    for p, o in source.predicate_objects(party):
        out.add(party, p, o)


def to_psdtou(g: Graph,
              profile: Optional[ConversionProfile] = None) -> tuple[Graph, ConversionReport]:
    """Build one psDToU app policy per PrivacyPolicy node.

    The app policy declares one input spec per distinct data class used
    by any practice, attaches the purposes of the practices using each
    class, and one sharing entry (recipient party type plus shared data)
    per sharing practice.
    """
    profile = profile or ConversionProfile.default()
    out = Graph()
    out.bind("dtou", profile.psdtou["namespace"])
    for prefix in _SOURCE_PREFIXES:
        out.bind(prefix, STANDARD_PREFIXES[prefix])
    report = ConversionReport()

    rdf_type = IRI(RDF_TYPE)
    types = practice_types(g)
    for policy in sorted(g.subjects_of_type(PRIVACY_POLICY), key=lambda t: str(t)):
        app = IRI(NODE + "dtou-" + _digest(str(policy)))
        out.add(app, rdf_type, profile.dtou_iri("app_policy_class"))

        practices = _practice_view(g, policy, types)
        by_data: dict[str, list[_Practice]] = {}
        for practice in practices:
            if not practice.data:
                report.skipped_practices.append(f"{practice.node!r}: no data links")
            for data_iri in practice.data:
                by_data.setdefault(data_iri.value, []).append(practice)

        for data_value in sorted(by_data):
            ispec = BNode("input-" + _digest(str(app), data_value))
            report.input_specs += 1
            out.add(app, profile.dtou_iri("has_input"), ispec)
            out.add(ispec, rdf_type, profile.dtou_iri("input_spec_class"))
            out.add(ispec, profile.dtou_iri("data"), IRI(data_value))
            for practice in by_data[data_value]:
                for purpose in practice.purposes:
                    out.add(ispec, profile.dtou_iri("purpose"), purpose)

        for practice in practices:
            if practice.class_name != "ThirdPartySharingDisclosure":
                continue
            snode = BNode("sharing-" + _digest(str(app), str(practice.node)))
            report.sharing_entries += 1
            out.add(app, profile.dtou_iri("has_sharing"), snode)
            out.add(snode, rdf_type, profile.dtou_iri("sharing_class"))
            for party in practice.recipients:
                for party_type in g.objects(party, rdf_type):
                    out.add(snode, profile.dtou_iri("recipient_type"), party_type)
            for data_iri in practice.data:
                out.add(snode, profile.dtou_iri("data"), data_iri)
    return out, report
