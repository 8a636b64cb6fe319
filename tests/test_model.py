import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import flowner
from flowner.cli import UsageError
from flowner.evaluation import LabelScore, MatchMode, MatchReport
from flowner.experiment import AggregateTable, MetricRow, RunResult, SplitManifest
from flowner.gazetteer import Gazetteer, VocabEntry, build_gazetteer, ingest
from flowner.model import (Corpus, Document, Entity, EntityLabel, InputError, Provenance,
                           Span, Violation, validate_corpus, validate_document)
from flowner.schema import ConversionReport, MappingRule, MappingTable, SchemaDef
from flowner.stats import StatsReport
from flowner.tagger import MalformedRules, RuleSet
from gen import random_document
from oracles import (OracleEntity, OracleEntityLabel, OracleSpan, oracle_canonical_order,
                     oracle_dataclass, oracle_sort_key)
from util import doc_of, ent


def test_span_rejects_empty_and_negative():
    with pytest.raises(ValueError, match=r"span must be non-empty: \[3, 3\)"):
        Span(3, 3)
    with pytest.raises(ValueError, match=r"span must be non-empty: \[5, 2\)"):
        Span(5, 2)
    with pytest.raises(ValueError, match="span start must be >= 0, got -1"):
        Span(start=-1, end=2)


def test_entity_fragments_must_be_sorted_and_disjoint():
    with pytest.raises(ValueError, match="entity T1: fragments not sorted by start"):
        Entity("T1", EntityLabel("Data"), (Span(5, 8), Span(0, 3)), "x y")
    with pytest.raises(ValueError, match="entity T1: fragments overlap"):
        Entity("T1", EntityLabel("Data"), (Span(0, 4), Span(3, 8)), "x y")
    with pytest.raises(ValueError, match="entity T1 has no fragments"):
        Entity("T1", EntityLabel("Data"), (), "")
    with pytest.raises(ValueError, match="entity T1 has no fragments"):
        Entity("T1", EntityLabel("Data"), iter(()), "")
    e = Entity(id="T1", label=EntityLabel(base="Data"), surface="a b",
               fragments=iter([Span(0, 1), Span(2, 3)]))
    assert type(e.fragments) is tuple and e.label.qualifier is None


def test_entity_adjacent_fragments_allowed():
    e = Entity("T1", EntityLabel("Data"), (Span(0, 3), Span(3, 6)), "abc def")
    assert (e.start, e.end) == (0, 6)


def test_document_normalizes_entity_order_and_dedupes():
    text = "abc def ghi"
    a = ent("T1", "Tool", 0, 3, text)
    b = ent("T2", "Data", 4, 7, text)
    d1 = doc_of("d", text, a, b)
    d2 = doc_of("d", text, b, a, b)
    assert d1 == d2
    assert [e.id for e in d1.entities] == ["T1", "T2"]


def test_entity_id_with_a_digit_int_rejects_sorts_after_numbered_ids():
    text = "abc def"
    odd = ent("T\u00b2", "Tool", 0, 3, text)
    doc = doc_of("d", text, odd, ent("T9", "Tool", 0, 3, text))
    assert [e.id for e in doc.entities] == ["T9", "T\u00b2"]


# Few distinct values, so that duplicates and equal sort keys are common:
# "T1"/"T01" and qualifier None/"" give equal keys, as do fragment tuples
# with the same extent.
_tied_entities = st.lists(st.builds(
    Entity,
    st.sampled_from(["T1", "T01", "T2", "T10", "X", "T\u00b2"]),
    st.builds(EntityLabel, st.sampled_from(["Tool", "Data"]),
              st.sampled_from([None, "", "Lab"])),
    st.sampled_from([(Span(0, 3),), (Span(0, 1), Span(2, 3)), (Span(1, 2),)]),
    st.sampled_from(["a", "b"])), max_size=12)


@settings(max_examples=150)
@given(_tied_entities)
# Strictly increasing extents: kept as given, without sort keys.
@example([Entity("T2", EntityLabel("Tool"), (Span(0, 1), Span(2, 3)), "a"),
          Entity("T1", EntityLabel("Data"), (Span(1, 2),), "b")])
def test_document_order_equals_the_set_and_sort_oracle(entities):
    got = Document("d", "abc", tuple(entities)).entities
    want = oracle_canonical_order(entities)
    assert len(got) == len(want) and set(got) == set(want)
    assert [oracle_sort_key(e) for e in got] == [oracle_sort_key(e) for e in want]
    # The oracle orders equal keys by string hash; here they keep input order.
    first_seen = {}
    for i, e in enumerate(entities):
        first_seen.setdefault(e, i)
    for a, b in zip(got, got[1:]):
        if oracle_sort_key(a) == oracle_sort_key(b):
            assert first_seen[a] < first_seen[b]
    if len({oracle_sort_key(e) for e in want}) == len(want):
        assert got == want


def _disjoint(steps):
    """Sorted, pairwise disjoint (start, end) pairs from (gap, length) steps."""
    spans, cursor = [], 0
    for gap, length in steps:
        spans.append((cursor + gap, cursor + gap + length))
        cursor += gap + length
    return tuple(spans)


# Few distinct values, so that equal records and equal spans are common.
_entity_fields = st.tuples(
    st.sampled_from(["T1", "T2"]),
    st.tuples(st.sampled_from(["Tool", "Data"]), st.sampled_from([None, "", "Lab"])),
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), min_size=1, max_size=2)
    .map(_disjoint),
    st.sampled_from(["a", "b"]))


def _records(fields):
    """The entity built both as a record and as the frozen dataclass oracle."""
    ent_id, (base, qualifier), spans, surface = fields
    return (Entity(ent_id, EntityLabel(base, qualifier),
                   tuple(Span(s, e) for s, e in spans), surface),
            OracleEntity(ent_id, OracleEntityLabel(base, qualifier),
                         tuple(OracleSpan(s, e) for s, e in spans), surface))


@settings(max_examples=300)
@given(_entity_fields, _entity_fields)
def test_records_hash_and_compare_as_the_frozen_dataclasses(a, b):
    (new_a, old_a), (new_b, old_b) = _records(a), _records(b)
    assert hash(new_a) == hash(old_a) and hash(new_a.label) == hash(old_a.label)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a.label == new_b.label) == (old_a.label == old_b.label)
    for span_a, span_b, old_span_a, old_span_b in zip(
            new_a.fragments, new_b.fragments, old_a.fragments, old_b.fragments):
        assert hash(span_a) == hash(old_span_a)
        assert len(span_a) == 2 and tuple(span_a) == (span_a.start, span_a.end)
        assert list(reversed(span_a)) == [span_a.end, span_a.start]
        for op in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(span_a, op)(span_b) == getattr(old_span_a, op)(old_span_b)
    assert repr(new_a) == repr(old_a).replace("Oracle", "")


def test_records_are_immutable_values():
    e = Entity("T1", EntityLabel("Tool", "Lab"), (Span(0, 3), Span(4, 6)), "abc de")
    assert repr(e) == ("Entity(id='T1', label=EntityLabel(base='Tool', qualifier='Lab'), "
                       "fragments=(Span(start=0, end=3), Span(start=4, end=6)), "
                       "surface='abc de')")
    assert str(e.label) == "Tool(Lab)" and str(EntityLabel("Tool")) == "Tool"
    for value in (e, e.label, e.fragments[0]):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)
            assert repr(clone) == repr(value)
    for value, field in ((e, "surface"), (e.label, "base"), (e.fragments[0], "start")):
        with pytest.raises(AttributeError):
            setattr(value, field, "x")
        with pytest.raises(AttributeError):
            value.other = 1
    match e:
        case Entity(ent_id, EntityLabel(base, qualifier), (Span(start, _), *_), surface=s):
            assert (ent_id, base, qualifier, start, s) == ("T1", "Tool", "Lab", 0, "abc de")
        case _:
            pytest.fail("no match")
    match e.fragments[1]:
        case Span(start=4, end=end):
            assert end == 6
        case _:
            pytest.fail("no match")
    assert (e.start, e.end) == (0, 6)


def test_the_records_are_namedtuples_that_add_no_field_boilerplate():
    from flowner.gazetteer import VocabEntry
    for cls in (Span, EntityLabel, Entity, VocabEntry):
        assert cls.__bases__[0].__bases__ == (tuple,) and cls.__slots__ == ()
        own = vars(cls)
        assert not {"__repr__", "__match_args__", *cls._fields} & own.keys(), cls
        assert not {"__len__", "__getnewargs__"} & own.keys(), cls
    assert EntityLabel("Tool") == EntityLabel("Tool", None) == ("Tool", None)
    assert not hasattr(Span(0, 1), "__dict__")


def test_a_long_span_converts_to_its_two_fields():
    span = Span(0, 10**6)
    assert len(span) == 2 and list(reversed(span)) == [10**6, 0]
    assert tuple(span) == (0, 10**6) and list(span) == [0, 10**6] and [*span] == [0, 10**6]
    start, end = span
    assert (start, end) == (span.start, span.end) == (0, 10**6)


def test_records_equal_the_plain_tuples_of_their_fields():
    # The documented difference from the dataclasses: a record is a tuple.
    label = EntityLabel("Tool")
    assert Span(0, 3) == (0, 3) and label == ("Tool", None)
    assert Entity("T1", label, (Span(0, 3),), "abc") == ("T1", ("Tool", None), ((0, 3),), "abc")
    assert EntityLabel("Data") < EntityLabel("Tool", "Lab")


_ENTITY = Entity("T1", EntityLabel("Tool"), (Span(0, 3),), "abc")
_SCORE = LabelScore.from_counts(1, 1, 0)
_REPORT = MatchReport(MatchMode.STRICT, {"Tool": _SCORE})
_ROW = MetricRow(50.0, 0.0, 100.0, 0.0, 66.7, 1.5)
_RULE = MappingRule("software", "url", EntityLabel("Tool"))
# Field values, in the order the dataclasses declared them, of one instance
# of every other value class.
_VALUE_FIELDS = {
    Document: ("d1", "abc", (_ENTITY,), Provenance.SILVER, ("#1\tAnnotatorNotes T1\tx",)),
    Corpus: ("c", (Document("d1", "abc"),)),
    Violation: ("DuplicateId", "d1", "T1", "id T1 used by more than one entity"),
    LabelScore: tuple(_SCORE),
    MatchReport: (MatchMode.STRICT, {"Tool": _SCORE}, ("Tool",), (), ()),
    StatsReport: (Counter({"Tool": 1}), 1, 0, 1, 1, 1),
    SplitManifest: (0, 7, ("a", "b"), ("c",), ("d",), (0.75, 1 / 3)),
    RunResult: (0, 1, _REPORT, {"model": "x"}),
    MetricRow: tuple(_ROW),
    AggregateTable: ({"Tool": _ROW}, _ROW, None),
    SchemaDef: (frozenset({"Tool"}), {"Tool": "core"}, {"Tool": frozenset({"Lab"})}),
    MappingRule: tuple(_RULE),
    MappingTable: ((_RULE,),),
    ConversionReport: (Counter({"software+url": 1}), Counter(), Counter(), 0),
    Gazetteer: ({"bwa": VocabEntry("BWA", "tool_name", frozenset({"custom"}))}, {"kept": 1}),
    RuleSet: ((r"v\d+",), (), {"Tool": ("BWA",)}),
}


@pytest.mark.parametrize("cls", list(_VALUE_FIELDS), ids=lambda cls: cls.__name__)
def test_value_classes_hash_and_print_as_the_dataclasses_they_were(cls):
    values = _VALUE_FIELDS[cls]
    old = oracle_dataclass(cls.__name__)(*values)
    names = [f.name for f in dataclasses.fields(old)]
    new = cls(**dict(zip(names, values)))
    assert repr(new) == repr(old) and new == cls(*values) == values
    assert cls.__match_args__ == tuple(names)
    try:
        old_hash = hash(old)
    except TypeError:
        with pytest.raises(TypeError):
            hash(new)
    else:
        assert hash(new) == old_hash
    for clone in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
        assert clone == new and type(clone) is cls
    for name in names:
        with pytest.raises(AttributeError):
            setattr(new, name, None)
    with pytest.raises(AttributeError):
        new.other = 1
    assert cls.__bases__[0].__bases__ == (tuple,) and cls.__slots__ == ()
    own = vars(cls).keys() - {"__len__"} if cls in (Corpus, Gazetteer) else vars(cls).keys()
    assert not {"__repr__", "__match_args__", "__len__", "__getnewargs__", *names} & own


def test_a_corpus_and_a_gazetteer_measure_their_contents():
    corpus = Corpus("c", tuple(Document(f"d{i}", "abc") for i in range(3)))
    gaz = build_gazetteer(ingest("custom", "BWA\nSAMtools\n"))
    assert len(corpus) == 3 and len(gaz) == len(gaz.entries) == 2
    assert len(Corpus("empty")) == 0 and not Corpus("empty")
    # namedtuple's _make and _replace check len() against the field count.
    with pytest.raises(TypeError):
        corpus._replace(name="d")
    with pytest.raises(TypeError):
        Gazetteer._make(({}, {}))


def test_run_results_do_not_share_meta():
    first, second = RunResult(0, 1, _REPORT), RunResult(1, 1, _REPORT)
    assert first.meta == second.meta == {} and first.meta is not second.meta


def test_checked_value_classes_raise_their_typed_errors():
    with pytest.raises(MalformedRules, match="not a label") as info:
        RuleSet(fixed_lists={"Nope": ["x"]})
    assert info.value.where == "fixed_lists.Nope"
    with pytest.raises(MalformedRules, match="invalid regex") as info:
        RuleSet(biblio_patterns=["("])
    assert info.value.where == "biblio_patterns[0]"
    with pytest.raises(MalformedRules, match="list of strings"):
        RuleSet(version_patterns="v1")
    with pytest.raises(ValueError, match="categories not total over labels"):
        SchemaDef(frozenset({"Tool"}), {}, {})
    with pytest.raises(ValueError, match="duplicate mapping rule"):
        MappingTable((_RULE, _RULE))
    with pytest.raises(ValueError, match="must precede its bare rule"):
        MappingTable((MappingRule("software", None, None), _RULE))


def test_validate_ok_corpus_is_empty():
    text = "abc def"
    corpus = Corpus("c", (doc_of("d1", text, ent("T1", "Tool", 0, 3, text)),))
    assert validate_corpus(corpus) == []


def test_validate_reports_offset_out_of_range():
    doc = Document("d1", "short", entities=(
        Entity("T1", EntityLabel("Tool"), (Span(2, 99),), "whatever"),))
    kinds = [v.kind for v in validate_document(doc)]
    assert kinds == ["OffsetOutOfRange"]


def test_validate_reports_surface_mismatch():
    doc = Document("d1", "abc def", entities=(
        Entity("T1", EntityLabel("Tool"), (Span(0, 3),), "zzz"),))
    violations = validate_document(doc)
    assert [v.kind for v in violations] == ["SurfaceMismatch"]
    assert violations[0].entity_id == "T1"


def test_validate_reports_duplicate_ids():
    text = "abc def"
    doc = doc_of("d1", text,
                 ent("T1", "Tool", 0, 3, text),
                 ent("T1", "Data", 4, 7, text))
    assert "DuplicateId" in [v.kind for v in validate_document(doc)]


def test_validate_reports_duplicate_doc_ids():
    doc = doc_of("same", "abc")
    violations = validate_corpus(Corpus("c", (doc, doc_of("same", "xyz"))))
    assert [v.kind for v in violations] == ["DuplicateDocId"]


def test_validate_label_registry_check_is_optional():
    text = "abc"
    doc = doc_of("d1", text, ent("T1", "NotALabel", 0, 3, text))
    assert validate_document(doc) == []
    assert [v.kind for v in validate_document(doc, frozenset({"Tool"}))] == \
        ["UnregisteredLabel"]


def test_random_documents_validate_cleanly():
    rng = random.Random(401)
    for i in range(50):
        doc = random_document(rng, f"d{i}")
        assert validate_document(doc) == [], doc


@pytest.mark.parametrize("path, where, shown", [
    ("rules.json", 3, "rules.json:3: bad"),
    ("rules.json", "fixed_lists.Tool", "rules.json: fixed_lists.Tool: bad"),
    ("dump.json", "record 0", "dump.json: record 0: bad"),
    ("table.json", None, "table.json: bad"),
    (None, "row 2", "row 2: bad"),
    (None, None, "bad"),
])
def test_an_input_error_shows_the_parts_it_has(path, where, shown):
    exc = InputError("bad", path, where)
    assert str(exc) == shown
    assert (exc.reason, exc.path, exc.where) == ("bad", path, where)
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is InputError and str(again) == shown


def _input_error_classes() -> set[type]:
    """The subclasses of InputError that the modules of ``flowner`` define."""
    classes = set()
    for info in pkgutil.iter_modules(flowner.__path__):
        module = importlib.import_module(f"flowner.{info.name}")
        classes |= {cls for cls in vars(module).values()
                    if isinstance(cls, type) and issubclass(cls, InputError)
                    and cls is not InputError and cls.__module__ == module.__name__}
    return classes


def test_every_input_error_class_is_a_bare_subclass():
    classes = _input_error_classes()
    exported = {cls for cls in vars(flowner).values()
                if isinstance(cls, type) and issubclass(cls, InputError) and cls is not InputError}
    assert exported | {UsageError} <= classes
    for cls in classes:
        assert "__init__" not in vars(cls) and "__str__" not in vars(cls), cls
