from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from support import make_use_case
from ucdoc import (
    ApplicationAreaRef,
    Misuse,
    RiskLevel,
    Taxonomy,
    TaxonomyEntry,
    TaxonomyError,
    Tier,
    assessment_to_dict,
    builtin_taxonomy,
    canonicalize,
    classify,
    explain,
    load_taxonomy,
    match_area,
    misuse_diagnostics,
)
from ucdoc.model import ValidationFailedError

TAX = builtin_taxonomy()


# ---------------------------------------------------------------------------
# taxonomy structure


def test_tier_counts():
    assert len(TAX.by_tier(Tier.PROHIBITED)) == 4
    assert len(TAX.by_tier(Tier.HIGH_RISK)) == 15
    assert len(TAX.entries) == 19


def test_distinct_area_counts():
    prohibited = {e.area_label for e in TAX.by_tier(Tier.PROHIBITED)}
    high = {e.area_label for e in TAX.by_tier(Tier.HIGH_RISK)}
    assert len(prohibited) == 3
    assert len(high) == 6


def test_entries_per_top_level_area():
    counts: dict[str, int] = {}
    for entry in TAX.entries:
        top = entry.area_id.split(".", 1)[0]
        counts[top] = counts.get(top, 0) + 1
    assert counts == {
        "subliminal_techniques": 1,
        "exploit_vulnerabilities": 1,
        "social_scoring": 2,
        "education": 2,
        "employment": 3,
        "essential_services": 3,
        "law_enforcement": 3,
        "migration_border": 3,
        "justice": 1,
    }


def test_pinned_entry_labels():
    e = TAX.find("law_enforcement.detect_emotional_state")
    assert e.area_label == "Law enforcement"
    assert e.sub_use_label == "Detect the emotional state of a natural person"
    assert e.tier is Tier.HIGH_RISK

    e = TAX.find("subliminal_techniques.distort_behaviour")
    assert e.area_label == ("Deploy subliminal techniques beyond a person's "
                            "consciousness")
    assert e.sub_use_label == ("Distort a person's behaviour to cause "
                               "psychological harm")
    assert e.tier is Tier.PROHIBITED

    e = TAX.find("social_scoring.predicted_personality")
    assert e.area_label == "Social scoring by public authorities or on their behalf"

    e = TAX.find("employment.monitor_performance")
    assert e.sub_use_label == ("Monitoring and evaluation of performance "
                               "and behaviour")
    assert TAX.find("nonexistent.area") is None


def test_version_string():
    assert TAX.version == "aiact-interpretation-2022-08"


# ---------------------------------------------------------------------------
# area matching


def test_exact_id_match():
    m = match_area(ApplicationAreaRef("education.determine_access"), TAX)
    assert m is not None and m.tier is Tier.HIGH_RISK


def test_unknown_id_does_not_match():
    assert match_area(ApplicationAreaRef("media.analytics"), TAX) is None


def test_other_label_keyword_match():
    m = match_area(
        ApplicationAreaRef("other", "visa application emotion screening"), TAX)
    assert m is not None
    assert m.area_id == "migration_border.examine_applications"


def test_other_label_without_keywords():
    assert match_area(ApplicationAreaRef("other", "leisure photography"), TAX) is None
    assert match_area(
        ApplicationAreaRef("other", "entertainment and leisure"), TAX) is None
    assert match_area(
        ApplicationAreaRef("other", "automotive driver assistance"), TAX) is None


def test_keyword_match_is_word_bounded():
    # "visage" must not hit the "visa" keyword.
    assert match_area(ApplicationAreaRef("other", "visage analysis"), TAX) is None


# A taxonomy built by hand, not loaded: its index and patterns must still be
# built on first use.
HAND_BUILT = Taxonomy("hand-1", (
    TaxonomyEntry("alpha.one", Tier.HIGH_RISK, "Alpha", "One",
                  ("camera", "crowd")),
    TaxonomyEntry("beta.two", Tier.PROHIBITED, "Beta", "Two",
                  ("camera", "score")),
    TaxonomyEntry("gamma.three", Tier.HIGH_RISK, "Gamma", "Three", ("a.b",)),
    TaxonomyEntry("delta.four", Tier.HIGH_RISK, "Delta", "Four",
                  ("c++", ".net")),
))


def test_hand_built_taxonomy_find_and_classify():
    assert HAND_BUILT.find("beta.two") is HAND_BUILT.entries[1]
    assert HAND_BUILT.find("beta") is None
    assert (match_area(ApplicationAreaRef("gamma.three"), HAND_BUILT)
            is HAND_BUILT.entries[2])
    uc = minimal_uc(application_areas=(
        ApplicationAreaRef("other", "crowd score camera"),))
    a = classify(uc, HAND_BUILT)
    assert a.level is RiskLevel.UNACCEPTABLE
    assert [m.area_id for m in a.matched] == ["alpha.one", "beta.two"]


@pytest.mark.parametrize("label, expected", [
    ("camera", "alpha.one"),          # one hit each: the earliest entry wins
    ("crowd camera", "alpha.one"),    # two hits against one
    ("score camera", "beta.two"),     # a later entry with more hits wins
    ("rule a.b applies", "gamma.three"),
    ("rule axb applies", None),       # keywords are literal, not regexes
    ("c++ tools", "delta.four"),      # a keyword may start or end in a
    ("a .net app", "delta.four"),     # character that is not a word one
    ("asp.net or c++x", None),        # but no word character may touch it
])
def test_hand_built_taxonomy_best_match(label, expected):
    m = match_area(ApplicationAreaRef("other", label), HAND_BUILT)
    assert (m and m.area_id) == expected


def brute_force_scan(tax: Taxonomy, ref: ApplicationAreaRef):
    """``Taxonomy._scan`` the slow way: one search per keyword per entry."""
    if ref.area_id != "other":
        return [(1, e) for e in tax.entries if e.area_id == ref.area_id]
    label = ref.free_label.lower()
    counts = [(sum(re.search(r"(?<!\w)" + re.escape(kw) + r"(?!\w)", label)
                   is not None
                   for kw in entry.keywords), entry) for entry in tax.entries]
    return [(hits, entry) for hits, entry in counts if hits]


# Built-in keywords, some inside longer words or next to hyphens, digits
# and non-ASCII letters, in three cases; keywords that overlap, within one
# entry ("student", "students") or across entries ("social scoring"), come
# up more often, and any may repeat.
KEYWORDS = sorted({kw for entry in TAX.entries for kw in entry.keywords})
OVERLAPPING = ("credit", "credit scoring", "creditworthiness", "student",
               "students", "student assessment", "social scoring",
               "social behaviour scoring", "worker", "workers", "workplace",
               "workplace monitoring", "admission", "admissions")
AFFIXES = ("",) * 12 + ("s", "ing", "pre", "-", "2", "_", "\u00e9", "\u00df")
SCAN_WORDS = st.builds(
    lambda before, kw, after, case: case(before + kw + after),
    st.sampled_from(AFFIXES),
    st.sampled_from(KEYWORDS) | st.sampled_from(OVERLAPPING),
    st.sampled_from(AFFIXES), st.sampled_from((str, str.upper, str.title)))
SCAN_LABELS = st.lists(st.tuples(
    SCAN_WORDS | st.sampled_from(("emotion", "caf\u00e9", "x")),
    st.sampled_from((" ", " ", " ", "-", ", ", "", "\u00e9"))),
    max_size=6).map(lambda pairs: "".join(word + sep for word, sep in pairs))
AREA_IDS = st.sampled_from([e.area_id for e in TAX.entries] + ["media.analytics"])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SCAN_LABELS.map(lambda label: ApplicationAreaRef("other", label))
       | AREA_IDS.map(ApplicationAreaRef))
def test_scan_matches_brute_force_keyword_count(ref):
    expected = brute_force_scan(TAX, ref)
    assert TAX._scan(ref) == expected
    # Most hits win; of equals, the earliest entry.
    best = max((hits for hits, _ in expected), default=0)
    assert match_area(ref, TAX) is next(
        (entry for hits, entry in expected if hits == best), None)


# ---------------------------------------------------------------------------
# classification rules


def minimal_uc(rng=None, **overrides):
    uc = make_use_case(rng or random.Random(1234))
    fields = {
        "application_areas": (ApplicationAreaRef("other", "smart home comfort"),),
        "safety_component": False,
        "affective_capabilities": (),
        "misuses": (),
    }
    fields.update(overrides)
    return canonicalize(replace(uc, **fields))


def test_minimal_level():
    a = classify(minimal_uc(), TAX)
    assert a.level is RiskLevel.MINIMAL
    assert a.matched == () and a.misuse_flags == ()


def test_prohibited_beats_everything():
    uc = minimal_uc(
        application_areas=(
            ApplicationAreaRef("social_scoring.social_behaviour"),
            ApplicationAreaRef("law_enforcement.crime_profiling"),
        ),
        safety_component=True,
        affective_capabilities=("emotion_recognition",),
    )
    a = classify(uc, TAX)
    assert a.level is RiskLevel.UNACCEPTABLE


def test_safety_component_forces_high():
    a = classify(minimal_uc(safety_component=True), TAX)
    assert a.level is RiskLevel.HIGH
    assert a.matched == ()
    assert "safety component" in explain(a)


def test_high_risk_area_match():
    uc = minimal_uc(
        application_areas=(ApplicationAreaRef("employment.recruitment"),))
    a = classify(uc, TAX)
    assert a.level is RiskLevel.HIGH
    assert [m.area_id for m in a.matched] == ["employment.recruitment"]


def test_capabilities_give_transparency():
    a = classify(minimal_uc(affective_capabilities=("mood_inference",)), TAX)
    assert a.level is RiskLevel.TRANSPARENCY


def test_an_empty_capability_tag_still_gives_transparency():
    # The rule tests the declared tags, not their joined text ("").
    a = classify(minimal_uc(affective_capabilities=("",)), TAX)
    assert a.level is RiskLevel.TRANSPARENCY
    assert a.rationale == ("affective capabilities declared (); transparency "
                           "obligations apply",)


def test_misuse_never_escalates():
    uc = minimal_uc(misuses=(
        Misuse("worst case",
               ApplicationAreaRef("subliminal_techniques.distort_behaviour")),))
    a = classify(uc, TAX)
    assert a.level is RiskLevel.MINIMAL
    assert len(a.misuse_flags) == 1
    assert a.misuse_flags[0].match.tier is Tier.PROHIBITED


def test_misuse_without_area_is_never_flagged():
    a = classify(minimal_uc(misuses=(Misuse("anything at all"),)), TAX)
    assert a.misuse_flags == ()


def test_classify_rejects_invalid():
    uc = replace(minimal_uc(), id="")
    with pytest.raises(ValidationFailedError):
        classify(uc, TAX)


# ---------------------------------------------------------------------------
# explain


def test_explain_minimal_has_exactly_one_rule_line():
    text = explain(classify(minimal_uc(), TAX))
    lines = text.splitlines()
    assert lines[0] == "Risk level: Minimal"
    assert sum(1 for ln in lines if ln.startswith("Rule:")) == 1
    assert text.endswith("\n")


def test_explain_warning_line_per_flag():
    uc = minimal_uc(misuses=(
        Misuse("first", ApplicationAreaRef("education.assess_students")),
        Misuse("second", ApplicationAreaRef("justice.assist_judicial")),
    ))
    text = explain(classify(uc, TAX))
    assert sum(1 for ln in text.splitlines() if ln.startswith("WARNING:")) == 2


def test_misuse_diagnostics_are_warnings():
    uc = minimal_uc(misuses=(
        Misuse("bad", ApplicationAreaRef("education.assess_students")),))
    diags = misuse_diagnostics(classify(uc, TAX))
    assert [d.code for d in diags] == ["risk.misuse_flag"]
    assert diags[0].severity.value == "warning"


def test_assessment_to_dict_shape():
    d = assessment_to_dict(classify(minimal_uc(safety_component=True), TAX))
    assert list(d.keys()) == [
        "risk_level", "risk_matched", "risk_misuse_flags", "risk_rationale"]
    assert d["risk_level"] == "High"
    assert d["risk_matched"] == [] and d["risk_misuse_flags"] == []
    assert isinstance(d["risk_rationale"], list) and d["risk_rationale"]


# ---------------------------------------------------------------------------
# taxonomy loading


CUSTOM = '''
version: "test-1"
entry everything.is_fine {
  tier: high_risk
  area: "Everything"
  sub_use: "Is fine"
  keywords: ["everything"]
}
'''


def test_load_custom_taxonomy():
    tax = load_taxonomy(CUSTOM)
    assert tax.version == "test-1"
    assert tax.find("everything.is_fine").tier is Tier.HIGH_RISK
    uc = minimal_uc(application_areas=(ApplicationAreaRef("everything.is_fine"),))
    assert classify(uc, tax).level is RiskLevel.HIGH


# Each mutation returns the broken text and the span of its one error.
@pytest.mark.parametrize("mutation", [
    lambda t: (t.replace('version: "test-1"', ""), (3, 1, 5)),  # missing version
    lambda t: (t.replace("high_risk", "catastrophic"), (4, 9, 12)),  # unknown tier
    lambda t: (t.replace('area: "Everything"', 'area: ""'), (3, 7, 18)),  # empty label
    lambda t: (t + t.split("\n", 2)[2], (9, 7, 18)),  # duplicate id
    lambda t: (t.replace('["everything"]', '["EVERYTHING"]'), (7, 14, 12)),  # uppercase
    lambda t: ('version: "v"\n', (2, 1, 0)),  # no entries
    lambda t: (t.replace("  area:", "  tier: high_risk\n  area:"), (5, 3, 4)),  # duplicate field
    lambda t: (t.replace("tier:", "tiers:"), (4, 3, 5)),  # unknown field
    lambda t: (t.replace('["everything"]', '["everything" "x"]'), (7, 27, 3)),  # no comma
])
def test_bad_taxonomy_is_rejected(mutation):
    text, span = mutation(CUSTOM)
    with pytest.raises(TaxonomyError) as info:
        load_taxonomy(text)
    assert [tuple(e.span) for e in info.value.errors] == [span]


# ---------------------------------------------------------------------------
# oracle equivalence (small sample here; the acceptance test runs 10,000)


def oracle_level(uc, tax: Taxonomy) -> RiskLevel:
    """Independent brute-force max-tier reimplementation."""
    levels = [RiskLevel.MINIMAL]
    for ref in uc.application_areas:
        for entry in tax.entries:
            if ref.area_id == "other":
                label = (ref.free_label or "").lower()
                if any(re.search(r"(?<!\w)" + re.escape(k) + r"(?!\w)", label)
                       for k in entry.keywords):
                    levels.append(entry.tier.level)
            elif entry.area_id == ref.area_id:
                levels.append(entry.tier.level)
    if uc.safety_component:
        levels.append(RiskLevel.HIGH)
    if uc.affective_capabilities:
        levels.append(RiskLevel.TRANSPARENCY)
    return max(levels)


RISK_AREA_POOL = tuple(e.area_id for e in TAX.entries) + (
    "media.analytics", "gaming.companion", "health.wellbeing_app")

RISK_OTHER_LABELS = (
    "entertainment and leisure",
    "visa application emotion screening",
    "classroom proctoring assistant",
    "music discovery",
    "credit scoring helper",
    "workplace monitoring dashboard",
)


def random_risk_uc(rng: random.Random):
    uc = make_use_case(rng, area_pool=RISK_AREA_POOL)
    refs = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            refs.append(ApplicationAreaRef("other", rng.choice(RISK_OTHER_LABELS)))
        else:
            refs.append(ApplicationAreaRef(rng.choice(RISK_AREA_POOL)))
    dedup = sorted(
        {(r.area_id, r.free_label) for r in refs},
        key=lambda t: (t[0], t[1] or ""))
    return canonicalize(replace(
        uc, application_areas=tuple(ApplicationAreaRef(a, l) for a, l in dedup)))


def test_oracle_equivalence_sample():
    rng = random.Random(777)
    for _ in range(300):
        uc = random_risk_uc(rng)
        assert classify(uc, TAX).level is oracle_level(uc, TAX)


def test_monotonicity_sample():
    rng = random.Random(778)
    for _ in range(200):
        uc = random_risk_uc(rng)
        before = classify(uc, TAX).level
        extra = ApplicationAreaRef(rng.choice(RISK_AREA_POOL))
        wider = canonicalize(replace(
            uc, application_areas=uc.application_areas + (extra,)))
        assert classify(wider, TAX).level >= before
