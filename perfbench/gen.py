"""Seeded synthetic inputs for the benchmark.

Everything here is a function of (workload, seed).  The generator first
draws a *plan*: policies made of line segments, where each segment knows
its spans (data, purpose, party, action), their DPV terms, the relation
tuples between them, and the raw model response planned for every task.
From the plan it writes what the program reads:

- policy texts (one ``.txt`` per policy),
- the DPV-term plan, one JSON line per segment (``plan.jsonl``),
- replay caches, recorded through ``build_prompt``, ``prompt_digest`` and
  ``ResponseCache.put`` so that digests always match the code under test,
- prompt -> response tables for the loopback stub endpoint,
- brat ``.txt``/``.ann``/``annotation.conf`` gold documents with planned
  predictions, some of them near misses,
- a combined practice graph in Turtle for the conversion workload,

and the expectations the correctness gate checks (``Expect``), which are
computed from the plan alone.

Planted shares (fixed, per workload): headings and other statements
without entities (skipped by the empty-segment rule), responses that
need repair, unparseable responses, boilerplate lines shared across
policies, and near-miss gold predictions.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

MODEL = "bench-model"
TIMESTAMP = "1970-01-01T00:00:00Z"

# DPV leaf labels (all present in the vendored snapshot) and surface phrases.
DATA_TERMS = [
    ("EmailAddress", ["email address", "e-mail address", "contact email"]),
    ("TelephoneNumber", ["phone number", "mobile number", "telephone number"]),
    ("PhysicalAddress", ["postal address", "home address", "shipping address"]),
    ("IPAddress", ["IP address", "network address"]),
    ("MACAddress", ["MAC address", "hardware address"]),
    ("DeviceID", ["device identifier", "advertising identifier", "device ID"]),
    ("BrowserFingerprint", ["browser fingerprint", "browser configuration"]),
    ("GPSCoordinate", ["GPS coordinates", "precise geolocation"]),
    ("Location", ["location data", "approximate location"]),
    ("BrowserHistory", ["browsing history", "web history"]),
    ("BrowsingBehavior", ["browsing behavior", "navigation patterns"]),
    ("LinkClicked", ["links you click", "clicked links"]),
    ("Name", ["full name", "first and last name"]),
    ("OfficialID", ["government ID", "passport number"]),
    ("Picture", ["profile picture", "profile photo"]),
    ("Username", ["username", "account name"]),
    ("Age", ["date of birth", "age"]),
    ("Gender", ["gender", "gender identity"]),
    ("Language", ["preferred language", "language settings"]),
    ("BankAccount", ["bank account details", "bank account number"]),
    ("CreditCardNumber", ["credit card number", "payment card details"]),
    ("PurchasesAndSpendingHabit", ["purchase history", "spending habits"]),
    ("Interest", ["interests", "hobbies"]),
    ("Preference", ["preferences", "settings choices"]),
    ("Communication", ["messages", "chat transcripts"]),
    ("SocialNetwork", ["social network connections", "friends list"]),
    ("EmploymentHistory", ["employment history", "job history"]),
    ("LifeHistory", ["life history", "biographical details"]),
]
PURPOSE_TERMS = [
    ("TargetedAdvertising", ["targeted advertising", "show you relevant ads"]),
    ("DirectMarketing", ["direct marketing", "send you marketing emails"]),
    ("PublicRelations", ["public relations", "press communications"]),
    ("ServicePersonalisation", ["personalise the service", "tailor your experience"]),
    ("PersonalisedBenefits", ["offer personalised rewards", "loyalty benefits"]),
    ("UserInterfacePersonalisation", ["customise the interface", "adapt the layout"]),
    ("ServiceRegistration", ["create your account", "registration"]),
    ("ServiceUsageAnalytics", ["usage analytics", "analyse how the service is used"]),
    ("PaymentManagement", ["process payments", "billing"]),
    ("TechnicalServiceProvision", ["operate the service", "deliver the app"]),
    ("ServiceOptimisation", ["improve our services", "optimise performance"]),
    ("AcademicResearch", ["academic research", "scientific studies"]),
    ("CommercialResearch", ["market research", "product research"]),
    ("FraudPreventionAndDetection", ["prevent fraud", "detect fraudulent activity"]),
    ("IdentityVerification", ["verify your identity", "identity checks"]),
    ("IdentityAuthentication", ["authenticate you", "secure sign-in"]),
    ("LegalCompliance", ["comply with legal obligations", "legal compliance"]),
    ("FulfilmentOfObligation", ["fulfil our contractual obligations", "contract performance"]),
    ("CommunicationForCustomerCare", ["respond to your requests", "answer your questions"]),
    ("AccountManagement", ["manage your account", "account administration"]),
    ("CustomerCare", ["provide customer support", "customer care"]),
    ("CustomerOrderManagement", ["manage your orders", "order fulfilment"]),
    ("CustomerRelationshipManagement", ["maintain our customer relationship", "customer relations"]),
    ("RecordManagement", ["keep records", "record keeping"]),
    ("VendorManagement", ["manage our vendors", "vendor oversight"]),
]
VERBS = {
    "collection_use": ["collect", "use", "process", "gather", "obtain", "receive"],
    "third_party_sharing_disclosure": ["share", "disclose", "transfer", "sell"],
    "storage_retention_deletion": ["store", "retain", "keep", "delete"],
    "security_protection": ["protect", "encrypt", "secure", "safeguard"],
}
# Practice-type shares calibrated to the released corpus: 6,488 of 11,800
# practices are collection-use (55%) and 1,324 sharing (11%).
SUBTYPE_WEIGHTS = [
    ("collection_use", 0.55),
    ("third_party_sharing_disclosure", 0.11),
    ("storage_retention_deletion", 0.20),
    ("security_protection", 0.14),
]
RECIPIENTS = ["advertising partners", "analytics providers", "law enforcement",
              "service providers", "our affiliates", "payment processors",
              "marketing agencies", "cloud hosting vendors", "data brokers"]
CONTEXTS = ["when you use our services", "when you register", "through cookies",
            "when you contact us", "when you make a purchase", "on our website",
            "in our mobile app", "during checkout", "when you sign in",
            "as permitted by law", "where required", "on a regular basis"]
HEADINGS = ["Information We Collect", "How We Use Information", "Sharing and Disclosure",
            "Data Retention", "Security", "Your Choices", "Children", "Cookies",
            "International Transfers", "Changes to This Policy", "Contact Us",
            "Your Rights", "Advertising", "Third-Party Services", "Definitions"]
FILLERS = ["This policy may change from time to time.",
           "Please read this notice carefully.",
           "We encourage you to review this page regularly.",
           "Capitalised terms have the meaning given in our terms of service.",
           "This section applies to all users worldwide.",
           "Nothing in this notice limits your statutory rights."]
NAME_A = ["Acme", "Blue", "Nova", "Quill", "Orbit", "Pine", "Vega", "Lumen", "Atlas", "Cedar",
          "Echo", "Harbor", "Iris", "Juno", "Kite", "Maple", "Nimbus", "Onyx", "Pixel", "Rowan"]
NAME_B = ["Cloud", "Health", "Games", "Maps", "Pay", "Social", "Learn", "Travel", "Music",
          "Photos", "Fitness", "Notes", "Shop", "Mail", "News", "Chat", "Drive", "Books"]
MONTHS = ["January", "February", "March", "April", "May", "June", "July", "August",
          "September", "October", "November", "December"]

DATA_PHRASES = [(term, phrase) for term, phrases in DATA_TERMS for phrase in phrases]
PURPOSE_PHRASES = [(term, phrase) for term, phrases in PURPOSE_TERMS for phrase in phrases]

RECOGNITION = ("data-recognition", "purpose-recognition", "party-recognition",
               "action-recognition")
TASKS = RECOGNITION + ("data-classification", "purpose-classification",
                       "relation-recognition")
ENVELOPE = {"data-recognition": "entities", "purpose-recognition": "entities",
            "party-recognition": "parties", "action-recognition": "actions",
            "data-classification": "classifications",
            "purpose-classification": "classifications",
            "relation-recognition": "relations"}
# Key renames the parser's synonym tables accept (key_normalization stage).
SYNONYM_KEYS = {"text": "span", "subtype": "type", "entity_text": "entity",
                "term": "dpv_term", "id1": "source", "id2": "target", "type": "relation_type"}
UNPARSEABLE = {
    "party-recognition": "I could not identify any organisation in this heading.",
    "action-recognition": "This heading does not describe how information is handled.",
}

# Planted shares.
REPAIR_SHARE = 0.30          # non-empty responses written in a form that needs repair
UNPARSEABLE_SHARE = 0.004    # of all planned queries
NEAR_MISS_SHARE = 0.35       # of non-empty relaxed-scored gold samples
SEGMENT_MIX = [("heading", 0.10), ("filler", 0.05), ("entity_only", 0.04),
               ("boilerplate", 0.08), ("practice", 0.73)]
TWO_ACTION_SHARE = 0.25      # of practice segments


@dataclass
class Span:
    kind: str                   # data | purpose | party | action
    text: str
    start: int                  # char offset in the segment text
    term: Optional[str] = None  # DPV label for data/purpose
    subtype: Optional[str] = None


@dataclass
class Action:
    span: Span
    data: list[Span] = field(default_factory=list)
    purposes: list[Span] = field(default_factory=list)
    performer: Optional[Span] = None
    provider: Optional[Span] = None
    recipient: Optional[Span] = None


@dataclass
class SegPlan:
    kind: str
    text: str
    actions: list[Action] = field(default_factory=list)
    loose_data: list[Span] = field(default_factory=list)   # entity-only segments
    parties: list[Span] = field(default_factory=list)

    @property
    def data(self) -> list[Span]:
        return self.loose_data + [d for a in self.actions for d in a.data]

    @property
    def purposes(self) -> list[Span]:
        return [p for a in self.actions for p in a.purposes]

    def has_spans(self) -> bool:
        return bool(self.data or self.purposes or self.parties or self.actions)

    def entity_ids(self) -> dict[int, str]:
        """Pipeline-style local ids: e0.. over data, purpose, party spans in
        text order within each kind, a0.. over actions."""
        ids: dict[int, str] = {}
        n = 0
        for group in (self.data, self.purposes, self.parties):
            for span in sorted(group, key=lambda s: s.start):
                ids[id(span)] = f"e{n}"
                n += 1
        for i, action in enumerate(sorted(self.actions, key=lambda a: a.span.start)):
            ids[id(action.span)] = f"a{i}"
        return ids

    def relations(self) -> list[dict]:
        ids = self.entity_ids()
        out = []
        for action in self.actions:
            a = ids[id(action.span)]
            out += [{"id1": a, "id2": ids[id(d)], "type": "HAS_DATA"} for d in action.data]
            out += [{"id1": a, "id2": ids[id(p)], "type": "HAS_PURPOSE"} for p in action.purposes]
            for role, party in (("PERFORMED_BY", action.performer),
                                ("DATA_PROVIDED_BY", action.provider),
                                ("DATA_SHARED_WITH", action.recipient)):
                if party is not None:
                    out.append({"id1": a, "id2": ids[id(party)], "type": role})
        return out


class _Text:
    """Builds a segment left to right, recording span offsets."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.pos = 0

    def add(self, s: str) -> None:
        self.parts.append(s)
        self.pos += len(s)

    def span(self, kind: str, s: str, **kw) -> Span:
        sp = Span(kind, s, self.pos, **kw)
        self.add(s)
        return sp

    def text(self) -> str:
        return "".join(self.parts)


def _shuffled_counts(rng: random.Random, total: int, shares: list[tuple]) -> list:
    """Exactly round(share * total) items of each value (the last takes the
    rest), in random order, so corpus shapes do not drift with the seed."""
    items = []
    for value, share in shares[:-1]:
        items += [value] * round(share * total)
    items += [shares[-1][0]] * (total - len(items))
    rng.shuffle(items)
    return items


class Deck:
    """Random draws whose shares are exact over every block of `size` draws."""

    def __init__(self, rng: random.Random, shares: list[tuple], size: int = 100):
        self.rng, self.shares, self.size = rng, shares, size
        self.items: list = []

    def draw(self):
        if not self.items:
            self.items = _shuffled_counts(self.rng, self.size, self.shares)
        return self.items.pop()


def _decks(rng: random.Random) -> dict[str, Deck]:
    """Per-practice draws, calibrated to about 0.85 data and 0.3 purpose
    links per practice."""
    return {
        "subtype": Deck(rng, SUBTYPE_WEIGHTS),
        "data": Deck(rng, [(0, 0.30), (1, 0.55), (2, 0.12), (3, 0.03)]),
        "purposes": Deck(rng, [(0, 0.72), (1, 0.26), (2, 0.02)]),
        "provider": Deck(rng, [(True, 0.06), (False, 0.94)]),
        "performer": Deck(rng, [(True, 0.10), (False, 0.90)]),
    }


def _practice_segment(rng: random.Random, decks: dict[str, Deck], performer_name: str,
                      n_actions: int) -> SegPlan:
    t = _Text()
    plan = SegPlan("practice", "")
    used_terms: set[str] = set()
    used_texts: set[str] = set()

    def fresh(pool):
        while True:
            term, phrase = rng.choice(pool)
            if term not in used_terms and phrase not in used_texts:
                used_terms.add(term)
                used_texts.add(phrase)
                return term, phrase

    performer = t.span("party", performer_name, subtype="first_party")
    plan.parties.append(performer)
    for k in range(n_actions):
        subtype = decks["subtype"].draw()
        t.add(" " if k == 0 else " and ")
        verb = rng.choice(VERBS[subtype])
        action = Action(t.span("action", verb, subtype=subtype))
        n_data = decks["data"].draw()
        for j in range(n_data):
            term, phrase = fresh(DATA_PHRASES)
            if j:
                t.add(" and " if j == n_data - 1 else ", ")
            else:
                t.add(" ")
            t.add(rng.choice(["your ", "the ", ""]))
            action.data.append(t.span("data", phrase, term=term))
        if n_data == 0:
            t.add(" " + rng.choice(["information", "certain details", "some data"]))
        if subtype == "collection_use" and decks["provider"].draw():
            t.add(" from ")
            action.provider = t.span("party", "you", subtype="user")
            plan.parties.append(action.provider)
        if subtype == "third_party_sharing_disclosure":
            t.add(" with ")
            recipient = rng.choice([r for r in RECIPIENTS if r not in used_texts])
            used_texts.add(recipient)
            action.recipient = t.span("party", recipient, subtype="third_party")
            plan.parties.append(action.recipient)
        n_purposes = decks["purposes"].draw()
        for j in range(n_purposes):
            term, phrase = fresh(PURPOSE_PHRASES)
            t.add((" to " if phrase.split()[0].islower() and " " in phrase else " for ")
                  if j == 0 else " and ")
            action.purposes.append(t.span("purpose", phrase, term=term))
        if decks["performer"].draw():
            action.performer = performer
        plan.actions.append(action)
    t.add(" " + rng.choice(CONTEXTS) + ".")
    plan.text = t.text()
    return plan


def _entity_only_segment(rng: random.Random) -> SegPlan:
    t = _Text()
    plan = SegPlan("entity_only", "")
    t.add(rng.choice(["Personal information includes ", "Examples include ",
                      "This may cover "]))
    terms = rng.sample(DATA_TERMS, 2)
    for j, (term, phrases) in enumerate(terms):
        if j:
            t.add(" and ")
        t.add("your ")
        plan.loose_data.append(t.span("data", rng.choice(phrases), term=term))
    t.add(".")
    plan.text = t.text()
    return plan


# -- response rendering --

def _pseudo(value) -> str:
    """Python-literal-like pseudo JSON: single quotes and trailing commas."""
    if isinstance(value, dict):
        return "{" + "".join(f"'{k}': {_pseudo(v)}, " for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + "".join(f"{_pseudo(v)}, " for v in value) + "]"
    return "'" + str(value) + "'"


def render(task: str, items: list[dict], rng: random.Random, repair: bool) -> str:
    """One planned response; `repair` picks a form the parser has to repair."""
    envelope = ENVELOPE[task]
    if not items:
        return rng.choice(["[]", json.dumps({envelope: []}), "none", "No results.", "N/A"])
    if not repair:
        return json.dumps({envelope: items})
    form = rng.randrange(4)
    if form == 0:
        return ("Sure! Here is the JSON you asked for:\n" + json.dumps({envelope: items})
                + "\nLet me know if you need anything else.")
    if form == 1:
        return "```json\n" + json.dumps({envelope: items}, indent=2) + "\n```"
    if form == 2:
        return _pseudo({envelope: items})
    renamed = [{SYNONYM_KEYS.get(k, k): v for k, v in item.items()} for item in items]
    return json.dumps({"results": renamed})


def planned_items(plan: SegPlan, task: str) -> list[dict]:
    """The items a well-behaved model returns for this task, in pipeline order."""
    if task == "data-recognition":
        return [{"text": s.text} for s in plan.data]
    if task == "purpose-recognition":
        return [{"text": s.text} for s in plan.purposes]
    if task == "party-recognition":
        return [{"text": s.text, "subtype": s.subtype} for s in plan.parties]
    if task == "action-recognition":
        return [{"text": a.span.text, "subtype": a.span.subtype} for a in plan.actions]
    if task == "data-classification":
        return [{"entity_text": s.text, "term": s.term} for s in plan.data]
    if task == "purpose-classification":
        return [{"entity_text": s.text, "term": s.term} for s in plan.purposes]
    return plan.relations()


def pipeline_extras(plan: SegPlan, task: str):
    """Prompt extras exactly as the pipeline sends them; "skip" when the
    pipeline sends no query for this task."""
    if task in RECOGNITION:
        return None
    if not plan.has_spans():
        return "skip"
    if task == "data-classification":
        return [s.text for s in plan.data] or "skip"
    if task == "purpose-classification":
        return [s.text for s in plan.purposes] or "skip"
    rows = []
    n = 0
    for group in (plan.data, plan.purposes, plan.parties):   # response order
        for s in group:
            rows.append((f"e{n}", s.kind, s.text))
            n += 1
    rows += [(f"a{i}", "action", a.span.text) for i, a in enumerate(plan.actions)]
    return rows


# -- policy corpora --

@dataclass
class Policy:
    service_id: str
    segments: list[SegPlan]

    def text(self) -> str:
        return "\n".join(s.text for s in self.segments) + "\n"


@dataclass
class Expect:
    """What a correct run must produce, from the plan alone."""
    segments: int = 0
    queries: int = 0              # backend calls planned (skips excluded)
    failed: int = 0               # planted unparseable responses among them
    practices: dict = field(default_factory=dict)   # practice class -> count
    data_links: int = 0
    purpose_links: int = 0
    triples: int = 0
    permissions: int = 0
    input_specs: int = 0
    sharing_entries: int = 0
    odrl_skipped: int = 0         # practices `to_odrl` reports as skipped


PRACTICE_CLASS = {"collection_use": "DataCollectionUse",
                  "third_party_sharing_disclosure": "ThirdPartySharingDisclosure"}


def _service_name(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = f"{rng.choice(NAME_A)} {rng.choice(NAME_B)}"
        if name not in taken:
            taken.add(name)
            return name


def make_corpus(seed: int, workload: str, n_policies: int, mean_segments: int) -> list[Policy]:
    """Policies whose lengths spread evenly over +-30% of `mean_segments`."""
    rng = random.Random(f"{workload}:{seed}")
    taken: set[str] = set()
    by_text: dict[str, SegPlan] = {}    # one plan per distinct text
    two_actions = [("2", TWO_ACTION_SHARE), ("1", 1 - TWO_ACTION_SHARE)]
    decks = _decks(rng)
    boilerplate = [_practice_segment(rng, decks, "We", int(n))
                   for n in _shuffled_counts(rng, 40, two_actions)]
    for b in boilerplate:
        b.kind = "boilerplate"
    sizes = [round(mean_segments * (0.7 + 0.6 * i / max(1, n_policies - 1)))
             if n_policies > 1 else mean_segments for i in range(n_policies)]
    rng.shuffle(sizes)
    policies = []
    for p, n in enumerate(sizes):
        if len(taken) == len(NAME_A) * len(NAME_B):
            taken.clear()
        name = _service_name(rng, taken)
        service_id = name.lower().replace(" ", "-") + f"-{p:03d}"
        segs = [SegPlan("unique", f"{name} Privacy Policy"),
                SegPlan("unique", f"{name} may update this policy at any time."),
                SegPlan("unique", f"This notice was last reviewed for {name} in "
                                  f"{rng.choice(MONTHS)} {rng.randint(2015, 2024)}.")]
        kinds = _shuffled_counts(rng, n - len(segs), SEGMENT_MIX)
        actions = iter(_shuffled_counts(rng, kinds.count("practice"), two_actions))
        section = 0
        for kind in kinds:
            if kind == "heading":
                section += 1
                segs.append(SegPlan("heading", f"{section}. {rng.choice(HEADINGS)}"))
            elif kind == "filler":
                segs.append(SegPlan("filler", rng.choice(FILLERS)))
            elif kind == "entity_only":
                segs.append(_entity_only_segment(rng))
            elif kind == "boilerplate":
                segs.append(rng.choice(boilerplate))
            else:
                performer = rng.choice(["We", "We", "We", "Our company", name])
                segs.append(_practice_segment(rng, decks, performer, int(next(actions))))
        policies.append(Policy(service_id, [by_text.setdefault(seg.text, seg) for seg in segs]))
    return policies


def plan_calls(policies: list[Policy], seed: int, workload: str) -> tuple[dict, Expect]:
    """Plan every model call of an `analyze` run over the corpus, and the
    outputs a correct run produces.  The call table maps the exact prompt
    the pipeline sends, (task, system, user), to the planned response."""
    from ppanalyze.extraction.prompts import TaskKind, build_prompt

    rng = random.Random(f"{workload}:{seed}:responses")
    repair_deck = Deck(rng, [(True, REPAIR_SHARE), (False, 1 - REPAIR_SHARE)])
    table: dict[tuple[str, str, str], str] = {}
    expect = Expect()
    responses: dict[tuple[str, str], str] = {}      # (segment text, task) -> raw

    # Planted unparseable responses go to segments whose text occurs once in
    # the corpus and carries no spans, so they affect no graph.
    occurrences: dict[str, int] = {}
    for pol in policies:
        for seg in pol.segments:
            occurrences[seg.text] = occurrences.get(seg.text, 0) + 1
    candidates = sorted({(seg.text, task) for pol in policies for seg in pol.segments
                         if seg.kind == "unique" and occurrences[seg.text] == 1
                         for task in UNPARSEABLE})
    planned_queries = sum(4 if not seg.has_spans() else
                          4 + sum(pipeline_extras(seg, t) != "skip" for t in TASKS[4:])
                          for pol in policies for seg in pol.segments)
    n_failed = min(len(candidates), round(UNPARSEABLE_SHARE * planned_queries))
    unparseable = set(rng.sample(candidates, n_failed))

    for pol in policies:
        policy_data: set[str] = set()
        for seg in pol.segments:
            expect.segments += 1
            for task in TASKS:
                extras = pipeline_extras(seg, task)
                if extras == "skip":
                    continue
                expect.queries += 1
                key = (seg.text, task)
                if key in unparseable:
                    expect.failed += 1
                if key not in responses:
                    items = planned_items(seg, task)
                    repair = bool(items) and repair_deck.draw()
                    responses[key] = UNPARSEABLE[task] if key in unparseable else \
                        render(task, items, rng, repair)
                    prompt = build_prompt(TaskKind(task), seg.text, extras)
                    table[(task, prompt.system, prompt.user)] = responses[key]
            # graph expectations (graph.build_graph semantics)
            party_nodes = set()
            for action in seg.actions:
                cls = PRACTICE_CLASS.get(action.span.subtype, "DataPractice")
                expect.practices[cls] = expect.practices.get(cls, 0) + 1
                data = {d.term for d in action.data}
                expect.data_links += len(data)
                expect.purpose_links += len({p.term for p in action.purposes})
                expect.triples += 5 + (cls == "DataPractice") + len(data) + \
                    len({p.term for p in action.purposes})
                for party in (action.performer, action.provider, action.recipient):
                    if party is not None:
                        expect.triples += 1
                        party_nodes.add(id(party))
                if cls != "DataPractice" and data:
                    expect.permissions += len(data)
                else:
                    expect.odrl_skipped += 1
                if cls == "ThirdPartySharingDisclosure":
                    expect.sharing_entries += 1
                policy_data |= data
            expect.triples += 2 * len(party_nodes)
        expect.input_specs += len(policy_data)
        expect.triples += 5
    return table, expect


def write_policies(policies: list[Policy], out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for pol in policies:
        path = out_dir / f"{pol.service_id}.txt"
        path.write_text(pol.text(), encoding="utf-8")
        paths.append(path)
    return paths


def write_plan(policies: list[Policy], path: Path) -> None:
    """The DPV-term plan: one JSON line per segment with its spans, their
    terms and subtypes, and the relation tuples a correct run extracts."""
    with path.open("w", encoding="utf-8") as f:
        for pol in policies:
            for index, seg in enumerate(pol.segments):
                spans = seg.data + seg.purposes + seg.parties + [a.span for a in seg.actions]
                f.write(json.dumps({
                    "policy": pol.service_id, "segment": index, "kind": seg.kind,
                    "text": seg.text,
                    "spans": [{k: v for k, v in vars(sp).items() if v is not None}
                              for sp in sorted(spans, key=lambda sp: sp.start)],
                    "relations": seg.relations(),
                }) + "\n")


def write_cache(table: dict, path: Path) -> None:
    """Record the planned responses through the program's own cache API."""
    from ppanalyze.extraction.backend import ResponseCache, prompt_digest
    from ppanalyze.extraction.prompts import PromptMessages

    if path.exists():
        path.unlink()
    cache = ResponseCache(path)
    for (task, system, user), response in table.items():
        prompt = PromptMessages(system=system, user=user)
        cache.put({
            "key": prompt_digest(MODEL, task, prompt),
            "model": MODEL,
            "task": task,
            "prompt": {"system": system, "user": user},
            "response": response,
            "timestamp": TIMESTAMP,
        })


# -- combined corpus graph for `convert` --

def _lit(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_corpus_graph(policies: list[Policy], path: Path) -> None:
    """Turtle for the practice graph `analyze` would build from the plan."""
    out = ["@prefix ppa: <urn:pp-analyze:core#> .",
           "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
           "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
           "@prefix dpv: <https://w3id.org/dpv#> .",
           "@prefix dpvpd: <https://w3id.org/dpv/pd#> .", ""]
    for pi, pol in enumerate(policies):
        policy = f"<urn:pp-analyze:policy#{pol.service_id}>"
        service = f"<urn:pp-analyze:service#{pol.service_id}>"
        practices = []
        for si, seg in enumerate(pol.segments):
            for ai, action in enumerate(seg.actions):
                node = f"<urn:pp-analyze:node#practice-{pi}-{si}-{ai}>"
                practices.append(node)
                cls = PRACTICE_CLASS.get(action.span.subtype, "DataPractice")
                lines = [f"{node} a ppa:{cls}"]
                if cls == "DataPractice":
                    lines.append(f"    ppa:practiceSubtype {_lit(action.span.subtype)}")
                lines.append(f"    ppa:sourceSegment {_lit(seg.text)}")
                lines.append(f'    ppa:segmentIndex "{si}"^^xsd:integer')
                lines.append(f"    rdfs:label {_lit(action.span.text)}")
                for pred, spans in (("hasData", action.data), ("hasPurpose", action.purposes)):
                    terms = sorted({s.term for s in spans})
                    if terms:
                        prefix = "dpvpd" if pred == "hasData" else "dpv"
                        lines.append(f"    ppa:{pred} " + ", ".join(f"{prefix}:{t}" for t in terms))
                for pred, party in (("performedBy", action.performer),
                                    ("dataProvidedBy", action.provider),
                                    ("dataSharedWith", action.recipient)):
                    if party is not None:
                        lines.append(f"    ppa:{pred} _:party-{pi}-{si}-{party.start}")
                out.append(" ;\n".join(lines) + " .")
                for party in (action.performer, action.provider, action.recipient):
                    if party is not None:
                        cls_name = {"first_party": "FirstParty", "third_party": "ThirdParty",
                                    "user": "User"}[party.subtype]
                        out.append(f"_:party-{pi}-{si}-{party.start} a ppa:{cls_name} ;\n"
                                   f"    rdfs:label {_lit(party.text)} .")
        out.append(f"{policy} a ppa:PrivacyPolicy ;\n    ppa:hasService {service} ;\n"
                   f'    ppa:taxonomyVersion "dpv-2-subset-2024-12"'
                   + (" ;\n    ppa:hasPractice " + ", ".join(practices) if practices else "")
                   + " .")
        out.append(f"{service} a ppa:Service ;\n    rdfs:label {_lit(pol.service_id)} .")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


# -- brat gold corpus for `evaluate` --

def lcs_ratio(a: str, b: str) -> float:
    """Longest-common-substring ratio, max denominator, over case-folded
    whitespace-collapsed texts (the documented relaxed-match ratio)."""
    a, b = " ".join(a.casefold().split()), " ".join(b.casefold().split())
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    best = 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0] * (len(b) + 1)
        for j, cb in enumerate(b, 1):
            if ca == cb:
                cur[j] = prev[j - 1] + 1
                best = max(best, cur[j])
        prev = cur
    return best / max(len(a), len(b))


def relaxed_f1(pred: list[str], gold: list[str], threshold: float) -> float:
    """Per-sample f1 under the documented two-pass relaxed matching."""
    if not gold:
        return 1.0 if not pred else 0.0
    norm = lambda s: " ".join(s.casefold().split())
    pred_free, gold_free = list(range(len(pred))), list(range(len(gold)))
    tp = 0.0
    for i in list(pred_free):
        for j in gold_free:
            if norm(pred[i]) == norm(gold[j]):
                tp += 1
                pred_free.remove(i)
                gold_free.remove(j)
                break
    cands = sorted((-lcs_ratio(pred[i], gold[j]), i, j) for i in pred_free for j in gold_free)
    for neg, i, j in cands:
        if -neg >= threshold and i in pred_free and j in gold_free:
            tp -= neg
            pred_free.remove(i)
            gold_free.remove(j)
    fp, fn = len(pred_free), len(gold_free)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


BRAT_PARTY = {"first_party": "first-party", "third_party": "third-party", "user": "user"}
BRAT_EVENT = {"collection_use": "collection-use",
              "third_party_sharing_disclosure": "third-party-sharing-disclosure",
              "storage_retention_deletion": "storage-retention-deletion",
              "security_protection": "security-protection"}
BRAT_ROLE = {"PERFORMED_BY": "data-collector", "DATA_PROVIDED_BY": "data-provider",
             "DATA_SHARED_WITH": "data-receiver"}
ANNOTATION_CONF = (
    "[entities]\ndata\npurpose\nfirst-party\nthird-party\nuser\n"
    "collection-use\nthird-party-sharing-disclosure\nstorage-retention-deletion\n"
    "security-protection\n\n[relations]\n\n[events]\n"
    "collection-use\tdata*:data, purpose*:purpose, data-collector?:<ENTITY>, data-provider?:<ENTITY>\n"
    "third-party-sharing-disclosure\tdata*:data, purpose*:purpose, data-collector?:<ENTITY>, data-receiver?:<ENTITY>\n"
    "storage-retention-deletion\tdata*:data, purpose*:purpose, data-collector?:<ENTITY>\n"
    "security-protection\tdata*:data, purpose*:purpose, data-collector?:<ENTITY>\n"
    "\n[attributes]\nDPV\tArg:<ENTITY>, Value:<GLOB>\n"
)


@dataclass
class GoldExpect:
    segments: int = 0
    relation_triples: int = 0                         # gold relation tuples
    queries: int = 0
    failed: dict = field(default_factory=dict)        # task -> planted failures
    samples: dict = field(default_factory=dict)       # task -> samples
    f1: dict = field(default_factory=dict)            # task -> (f1, f1_n, f1_e)


def _near_miss(text: str) -> str:
    """A near miss: the span without its last character (ratio (n-1)/n)."""
    return text[:-1] if len(text) > 3 else text + "s"


def make_gold(seed: int, out_dir: Path, n_docs: int, mean_segments: int,
              threshold: float = 0.9) -> tuple[dict, GoldExpect]:
    """Write a brat gold corpus plus planned predictions; return both."""
    from ppanalyze.extraction.prompts import TaskKind, build_prompt

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "annotation.conf").write_text(ANNOTATION_CONF, encoding="utf-8")
    policies = make_corpus(seed, "evaluate-gold", n_docs, mean_segments)
    write_plan(policies, out_dir.parent / f"{out_dir.name}-plan.jsonl")
    rng = random.Random(f"evaluate-gold:{seed}:predictions")
    repair_deck = Deck(rng, [(True, REPAIR_SHARE), (False, 1 - REPAIR_SHARE)])
    near_deck = Deck(rng, [(True, NEAR_MISS_SHARE), (False, 1 - NEAR_MISS_SHARE)])
    table: dict[tuple[str, str, str], str] = {}
    expect = GoldExpect()
    scores: dict[str, list[tuple[float, bool]]] = {t: [] for t in TASKS}

    # Planted unparseable responses go to segments whose text occurs once in
    # the corpus and carries no spans (their gold is empty).
    texts = [seg.text for pol in policies for seg in pol.segments]
    slots = sorted({(seg.text, task) for pol in policies for seg in pol.segments
                    if seg.kind == "unique" and texts.count(seg.text) == 1
                    for task in UNPARSEABLE})
    failing = set(rng.sample(slots, min(len(slots), round(UNPARSEABLE_SHARE * len(texts) * 4))))
    planned: dict[tuple, list[str]] = {}     # prompt -> planned prediction

    for d, pol in enumerate(policies):
        text = pol.text()
        ann: list[str] = []
        offset = 0
        tid = 0
        for si, seg in enumerate(pol.segments):
            expect.segments += 1
            expect.relation_triples += len(seg.relations())
            ids = seg.entity_ids()
            brat_id: dict[int, str] = {}
            # one T line per distinct span object, in text order
            spans = {id(s): s for s in seg.data + seg.purposes + seg.parties}
            for s in sorted(spans.values(), key=lambda s: s.start):
                tid += 1
                brat_id[id(s)] = f"T{tid}"
                label = BRAT_PARTY[s.subtype] if s.kind == "party" else s.kind
                a = offset + s.start
                ann.append(f"T{tid}\t{label} {a} {a + len(s.text)}\t{s.text}")
                if s.term:
                    ann.append(f"A{tid}\tDPV T{tid} {s.term}")
            for action in seg.actions:
                tid += 1
                trig = f"T{tid}"
                a = offset + action.span.start
                ann.append(f"{trig}\t{BRAT_EVENT[action.span.subtype]} {a} "
                           f"{a + len(action.span.text)}\t{action.span.text}")
                roles = []
                for role, group in (("data", action.data), ("purpose", action.purposes)):
                    for k, s in enumerate(group):
                        roles.append(f"{role}{k + 1 if k else ''}:{brat_id[id(s)]}")
                for rel, party in (("PERFORMED_BY", action.performer),
                                   ("DATA_PROVIDED_BY", action.provider),
                                   ("DATA_SHARED_WITH", action.recipient)):
                    if party is not None:
                        roles.append(f"{BRAT_ROLE[rel]}:{brat_id[id(party)]}")
                ann.append(f"E{tid}\t{BRAT_EVENT[action.span.subtype]}:{trig}"
                           + "".join(" " + r for r in roles))

            # planned predictions, one sample per (segment, task)
            for task in TASKS:
                by_start = lambda group: sorted(group, key=lambda s: s.start)
                if task == "relation-recognition":
                    gold = [f"{r['id1']} {r['id2']} {r['type']}" for r in seg.relations()]
                    items = sorted(seg.relations(), key=lambda r: (r["id1"], r["id2"]))
                    extras = ([(ids[id(s)], s.kind, s.text) for g in (seg.data, seg.purposes, seg.parties)
                               for s in by_start(g)]
                              + [(ids[id(a.span)], "action", a.span.text)
                                 for a in sorted(seg.actions, key=lambda a: a.span.start)])
                    pred = gold
                elif task in ("data-classification", "purpose-classification"):
                    group = by_start(seg.data if task.startswith("data") else seg.purposes)
                    gold = [s.text for s in group]
                    extras = gold
                    near = bool(group) and near_deck.draw()
                    pred = [_near_miss(t) for t in gold] if near else list(gold)
                    items = [{"entity_text": p, "term": s.term} for p, s in zip(pred, group)]
                else:
                    group = {"data-recognition": seg.data, "purpose-recognition": seg.purposes,
                             "party-recognition": seg.parties,
                             "action-recognition": [a.span for a in seg.actions]}[task]
                    group = by_start(group)
                    gold = [s.text for s in group]
                    extras = None
                    near = bool(group) and near_deck.draw()
                    pred = [_near_miss(t) for t in gold] if near else list(gold)
                    items = [{"text": p, **({"subtype": s.subtype} if s.subtype else {})}
                             for p, s in zip(pred, group)]
                    if task == "data-recognition" or task == "purpose-recognition":
                        items = [{"text": p} for p in pred]
                expect.samples[task] = expect.samples.get(task, 0) + 1
                failed = (seg.text, task) in failing
                if extras is not None and not extras:
                    f1 = relaxed_f1([], gold, threshold)       # no query: nothing to score
                else:
                    expect.queries += 1
                    prompt = build_prompt(TaskKind(task), seg.text, extras or None)
                    key = (task, prompt.system, prompt.user)
                    if failed:
                        table[key] = UNPARSEABLE[task]
                        expect.failed[task] = expect.failed.get(task, 0) + 1
                        pred = []
                    elif key in planned:                        # repeated segment text
                        pred = planned[key]
                    else:
                        planned[key] = pred
                        table[key] = render(task, items, rng,
                                                      bool(items) and repair_deck.draw())
                    f1 = relaxed_f1(pred, gold, 1.0 if task == "relation-recognition" else threshold)
                scores[task].append((f1, not gold))
            offset += len(seg.text) + 1
        (out_dir / f"{pol.service_id}.txt").write_text(text, encoding="utf-8")
        (out_dir / f"{pol.service_id}.ann").write_text("\n".join(ann) + "\n", encoding="utf-8")

    mean = lambda xs: sum(xs) / len(xs) if xs else None
    for task, rows in scores.items():
        expect.f1[task] = (mean([f for f, _ in rows]),
                           mean([f for f, empty in rows if not empty]),
                           mean([f for f, empty in rows if empty]))
    return table, expect
