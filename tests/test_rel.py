"""Unit tests for relational operators: row types, digests, join info."""

import pytest

from repro.core import rex as rexmod
from repro.core.builder import RelBuilder
from repro.core.rel import (
    JoinInfo,
    JoinRelType,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalValues,
    collect_scans,
    count_nodes,
)
from repro.core.rex import RexCall, RexInputRef, literal
from repro.core.types import DEFAULT_TYPE_FACTORY as F


def two_tables(hr_catalog):
    b = RelBuilder(hr_catalog)
    b.scan("hr", "emps")
    emps = b.build()
    b.scan("hr", "depts")
    depts = b.build()
    return emps, depts


class TestRowTypes:
    def test_scan_row_type(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        assert emps.row_type.field_names == (
            "empid", "deptno", "name", "sal", "commission")

    def test_filter_preserves_row_type(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        f = LogicalFilter(emps, literal(True))
        assert f.row_type is emps.row_type

    def test_join_concatenates(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        join = LogicalJoin(emps, depts, literal(True), JoinRelType.INNER)
        assert join.row_type.field_count == 7
        assert join.row_type.fields[5].name == "deptno"

    def test_left_join_nullifies_right(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        join = LogicalJoin(emps, depts, literal(True), JoinRelType.LEFT)
        # depts.deptno is NOT NULL but becomes nullable on the outer side
        assert join.row_type.fields[5].type.nullable

    def test_semi_join_projects_left_only(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        join = LogicalJoin(emps, depts, literal(True), JoinRelType.SEMI)
        assert join.row_type.field_count == 5


class TestDigests:
    def test_equal_trees_equal_digests(self, hr_catalog):
        emps1, _ = two_tables(hr_catalog)
        emps2, _ = two_tables(hr_catalog)
        cond = RexCall(rexmod.GREATER_THAN,
                       [RexInputRef(3, F.integer()), literal(100)])
        f1 = LogicalFilter(emps1, cond)
        f2 = LogicalFilter(emps2, cond)
        assert f1.digest == f2.digest

    def test_different_conditions_different_digests(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        f1 = LogicalFilter(emps, literal(True))
        f2 = LogicalFilter(emps, literal(False))
        assert f1.digest != f2.digest

    def test_digest_includes_traits(self, hr_catalog):
        from repro.core.traits import Convention, RelTraitSet
        emps, _ = two_tables(hr_catalog)
        other = emps.copy(traits=RelTraitSet(Convention.ENUMERABLE))
        assert emps.digest != other.digest


class TestJoinInfo:
    def test_equi_extraction(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        cond = RexCall(rexmod.EQUALS, [
            RexInputRef(1, F.integer()), RexInputRef(5, F.integer())])
        join = LogicalJoin(emps, depts, cond, JoinRelType.INNER)
        info = join.analyze_condition()
        assert info.left_keys == [1]
        assert info.right_keys == [0]
        assert info.is_equi

    def test_reversed_sides(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        cond = RexCall(rexmod.EQUALS, [
            RexInputRef(5, F.integer()), RexInputRef(1, F.integer())])
        join = LogicalJoin(emps, depts, cond, JoinRelType.INNER)
        info = join.analyze_condition()
        assert info.left_keys == [1]
        assert info.right_keys == [0]

    def test_non_equi_remainder(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        equi = RexCall(rexmod.EQUALS, [
            RexInputRef(1, F.integer()), RexInputRef(5, F.integer())])
        theta = RexCall(rexmod.GREATER_THAN, [
            RexInputRef(3, F.integer()), literal(100)])
        join = LogicalJoin(emps, depts,
                           RexCall(rexmod.AND, [equi, theta]), JoinRelType.INNER)
        info = join.analyze_condition()
        assert info.left_keys == [1]
        assert len(info.non_equi) == 1
        assert not info.is_equi


class TestProjectHelpers:
    def test_identity_detection(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        fields = emps.row_type.fields
        p = LogicalProject(
            emps, [RexInputRef(i, f.type) for i, f in enumerate(fields)],
            [f.name for f in fields])
        assert p.is_identity()

    def test_renamed_is_not_identity(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        fields = emps.row_type.fields
        p = LogicalProject(
            emps, [RexInputRef(i, f.type) for i, f in enumerate(fields)],
            ["a", "b", "c", "d", "e"])
        assert not p.is_identity()

    def test_permutation(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        fields = emps.row_type.fields
        p = LogicalProject(emps, [RexInputRef(2, fields[2].type),
                                  RexInputRef(0, fields[0].type)],
                           ["name", "empid"])
        assert p.permutation() == {0: 2, 1: 0}

    def test_computed_has_no_permutation(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        p = LogicalProject(emps, [literal(1)], ["one"])
        assert p.permutation() is None


class TestTreeHelpers:
    def test_count_nodes(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        join = LogicalJoin(emps, depts, literal(True), JoinRelType.INNER)
        top = LogicalFilter(join, literal(True))
        assert count_nodes(top) == 4

    def test_collect_scans(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        join = LogicalJoin(emps, depts, literal(True), JoinRelType.INNER)
        scans = collect_scans(join)
        assert [s.table.name for s in scans] == ["hr.emps", "hr.depts"]

    def test_explain_is_readable(self, hr_catalog):
        emps, _ = two_tables(hr_catalog)
        text = LogicalFilter(emps, literal(True)).explain()
        assert "LogicalFilter" in text
        assert "LogicalTableScan" in text

    def test_values_empty(self):
        v = LogicalValues.empty(F.struct(["a"], [F.integer()]))
        assert v.tuples == []
        assert v.row_type.field_names == ("a",)

    def test_empty_values_of_different_row_types_differ(self):
        """One digest would merge their Volcano sets, mixing row types."""
        one = LogicalValues.empty(F.struct(["a"], [F.integer()]))
        two = LogicalValues.empty(
            F.struct(["a", "b"], [F.integer(), F.varchar()]))
        assert one.digest != two.digest
        assert one.explain() == two.explain()  # plans print the tuples only

    def test_single_input_accessor_raises_on_join(self, hr_catalog):
        emps, depts = two_tables(hr_catalog)
        join = LogicalJoin(emps, depts, literal(True), JoinRelType.INNER)
        with pytest.raises(ValueError):
            _ = join.input
