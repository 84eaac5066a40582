"""Nested and set-operator archetypes — the EM-critical compositions.

These are the archetypes where realization ambiguity is sharpest:
``NOT IN`` vs ``EXCEPT`` (the paper's Figure 1 example), ``ORDER BY …
LIMIT 1`` vs ``= (SELECT MAX …)``, ``INTERSECT`` vs conjunctive ``IN``,
and ``OR`` vs ``UNION``.
"""

from __future__ import annotations

from typing import Optional

from repro.spider.archetypes.base import (
    Archetype,
    colref,
    filter_phrase,
    projection_items,
    simple_query,
    single_from,
    where_from_filters,
)
from repro.spider.intents import IntentSpec
from repro.sqlkit.ast_nodes import (
    Agg,
    BoolOp,
    Comparison,
    FromClause,
    InExpr,
    JoinedTable,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    Subquery,
    TableRef,
)
from repro.utils.text import pluralize


class SuperlativeArchetype(Archetype):
    """The row with the extreme value: ORDER/LIMIT vs = (SELECT MAX...)."""

    kind = "superlative"
    realizations = ("order_limit", "max_subquery")
    gold_weights = (0.6, 0.4)

    def sample(self, ctx, rng) -> Optional[IntentSpec]:
        """Draw an IntentSpec from this domain, or None if inapplicable."""
        tables = [t.name for t in ctx.blueprint.tables]
        table = str(rng.choice(tables))
        display = ctx.display_column(table)
        numerics = ctx.queryable_columns(table, roles=("numeric",))
        if display is None or not numerics:
            return None
        order_col = numerics[int(rng.integers(0, len(numerics)))]
        direction = "DESC" if rng.random() < 0.65 else "ASC"
        return IntentSpec(
            kind=self.kind,
            table=table,
            projections=[["col", table, display.name]],
            order=[table, order_col.name, direction],
            limit=1,
        )

    def build(self, intent, realization, ctx) -> Query:
        """Build the SQL AST for the given realization of the intent."""
        table, column, direction = intent.order
        if realization == "order_limit":
            core = SelectCore(
                items=projection_items(intent.projections, {}),
                from_clause=single_from(intent.table),
                order_by=[OrderItem(expr=colref(column), direction=direction)],
                limit=1,
            )
            return simple_query(core)
        func = "MAX" if direction == "DESC" else "MIN"
        scalar = SelectCore(
            items=[SelectItem(expr=Agg(func=func, args=[colref(column)]))],
            from_clause=single_from(intent.table),
        )
        core = SelectCore(
            items=projection_items(intent.projections, {}),
            from_clause=single_from(intent.table),
            where=Comparison(
                op="=",
                left=colref(column),
                right=Subquery(query=simple_query(scalar)),
            ),
        )
        return simple_query(core)

    def nl(self, intent, ctx, style, rng) -> str:
        """Render the intent as an NL question in the given style."""
        table = ctx.phrase_table(intent.table, style, rng)
        _, tkey, pcol = intent.projections[0]
        col = ctx.phrase_column(tkey, pcol, style, rng)
        order_table, order_col, direction = intent.order
        ocol = ctx.phrase_column(order_table, order_col, style, rng)
        extreme = "highest" if direction == "DESC" else "lowest"
        if style == "realistic":
            return f"Which {table} has the {extreme} {ocol}?"
        if intent.nl_variant == "max_subquery":
            bound = "maximum" if direction == "DESC" else "minimum"
            return f"What is the {col} of the {table} whose {ocol} is the {bound}?"
        return f"What is the {col} of the {table} with the {extreme} {ocol}?"


class CompareToAvgArchetype(Archetype):
    """Rows whose value is above/below the table average."""

    kind = "compare_avg"
    realizations = ("avg_subquery",)
    gold_weights = (1.0,)

    def sample(self, ctx, rng) -> Optional[IntentSpec]:
        """Draw an IntentSpec from this domain, or None if inapplicable."""
        tables = [t.name for t in ctx.blueprint.tables]
        table = str(rng.choice(tables))
        display = ctx.display_column(table)
        numerics = ctx.queryable_columns(table, roles=("numeric",))
        if display is None or not numerics:
            return None
        cb = numerics[int(rng.integers(0, len(numerics)))]
        direction = ">" if rng.random() < 0.7 else "<"
        return IntentSpec(
            kind=self.kind,
            table=table,
            projections=[["col", table, display.name]],
            order=[table, cb.name, direction],
            compare_agg="AVG",
        )

    def build(self, intent, realization, ctx) -> Query:
        """Build the SQL AST for the given realization of the intent."""
        table, column, op = intent.order
        scalar = SelectCore(
            items=[SelectItem(expr=Agg(func="AVG", args=[colref(column)]))],
            from_clause=single_from(intent.table),
        )
        core = SelectCore(
            items=projection_items(intent.projections, {}),
            from_clause=single_from(intent.table),
            where=Comparison(
                op=op,
                left=colref(column),
                right=Subquery(query=simple_query(scalar)),
            ),
        )
        return simple_query(core)

    def nl(self, intent, ctx, style, rng) -> str:
        """Render the intent as an NL question in the given style."""
        tablep = pluralize(ctx.phrase_table(intent.table, style, rng))
        _, tkey, pcol = intent.projections[0]
        col = ctx.phrase_column(tkey, pcol, style, rng)
        _, order_col, op = intent.order
        ocol = ctx.phrase_column(intent.table, order_col, style, rng)
        side = "above" if op == ">" else "below"
        return (
            f"Which {tablep} have a {ocol} {side} the average? "
            f"Show their {col}?"
        )


class ExclusionArchetype(Archetype):
    """Parents without (matching) children: NOT IN vs EXCEPT.

    This is the paper's running example (Figure 1).  When the projected
    parent column contains duplicates (e.g. ``country``), the two
    realizations differ at execution time because EXCEPT deduplicates.
    """

    kind = "exclusion"
    realizations = ("not_in", "except")
    gold_weights = (0.5, 0.5)

    def sample(self, ctx, rng) -> Optional[IntentSpec]:
        """Draw an IntentSpec from this domain, or None if inapplicable."""
        pairs = ctx.fk_pairs()
        if not pairs:
            return None
        fk = list(pairs[int(rng.integers(0, len(pairs)))])
        child, _, parent, _ = fk
        # Project the display column usually; a categorical column sometimes
        # (that is what makes NOT IN and EXCEPT execution-distinguishable).
        if rng.random() < 0.6:
            proj = ctx.display_column(parent)
        else:
            cats = ctx.queryable_columns(parent, roles=("category",))
            proj = cats[0] if cats else ctx.display_column(parent)
        if proj is None:
            return None
        filters = []
        if rng.random() < 0.5:
            f = ctx.sample_filter(child, rng, want_dk=rng.random() < 0.5)
            if f is not None:
                filters.append(f)
        return IntentSpec(
            kind=self.kind,
            table=parent,
            projections=[["col", parent, proj.name]],
            filters=filters,
            fk=fk,
        )

    def build(self, intent, realization, ctx) -> Query:
        """Build the SQL AST for the given realization of the intent."""
        child, child_c, parent, parent_c = intent.fk
        if realization == "not_in":
            inner = SelectCore(
                items=[SelectItem(expr=colref(child_c))],
                from_clause=single_from(child),
                where=where_from_filters(intent.filters, ctx, {}),
            )
            core = SelectCore(
                items=projection_items(intent.projections, {}),
                from_clause=single_from(parent),
                where=InExpr(
                    left=colref(parent_c),
                    source=Subquery(query=simple_query(inner)),
                    negated=True,
                ),
            )
            return simple_query(core)
        # EXCEPT realization, parent aliased T1 and child T2 as in Figure 1b.
        left = SelectCore(
            items=projection_items(intent.projections, {}),
            from_clause=single_from(parent),
        )
        aliases = {parent: "T1", child: "T2"}
        right = SelectCore(
            items=projection_items(intent.projections, aliases),
            from_clause=FromClause(
                first=TableRef(name=parent, alias="T1"),
                joins=[
                    JoinedTable(
                        source=TableRef(name=child, alias="T2"),
                        on=Comparison(
                            op="=",
                            left=colref(parent_c, "T1"),
                            right=colref(child_c, "T2"),
                        ),
                    )
                ],
            ),
            where=where_from_filters(intent.filters, ctx, aliases),
        )
        return Query(core=left, compounds=[("EXCEPT", right)])

    def nl(self, intent, ctx, style, rng) -> str:
        """Render the intent as an NL question in the given style."""
        child, _, parent, _ = intent.fk
        childp = pluralize(ctx.phrase_table(child, style, rng))
        parentp = pluralize(ctx.phrase_table(parent, style, rng))
        pcol = ctx.phrase_column(parent, intent.projections[0][2], style, rng)
        tail = ""
        if intent.filters:
            tail = " " + filter_phrase(intent.filters[0], ctx, style, rng)
        if intent.nl_variant == "except":
            return (
                f"Which {parentp} have no {childp}{tail} at all? "
                f"Show their {pcol}?"
            )
        return (
            f"Which {parentp} do not have any {childp}{tail}? "
            f"Show their {pcol}?"
        )


class IntersectArchetype(Archetype):
    """Category values present under two different predicates."""

    kind = "intersect"
    realizations = ("intersect", "in_and")
    gold_weights = (0.7, 0.3)

    def sample(self, ctx, rng) -> Optional[IntentSpec]:
        """Draw an IntentSpec from this domain, or None if inapplicable."""
        tables = [t.name for t in ctx.blueprint.tables]
        table = str(rng.choice(tables))
        cats = ctx.queryable_columns(table, roles=("category",))
        numerics = ctx.queryable_columns(table, roles=("numeric", "year"))
        if not cats or not numerics:
            return None
        proj = cats[int(rng.integers(0, len(cats)))]
        cb = numerics[int(rng.integers(0, len(numerics)))]
        values = sorted(ctx.column_values(table, cb.name))
        if len(values) < 4:
            return None
        low = values[len(values) // 4]
        high = values[3 * len(values) // 4]
        if low == high:
            return None
        from repro.spider.intents import FilterSpec

        f1 = FilterSpec(table=table, column=cb.name, op=">", value=high)
        f2 = FilterSpec(table=table, column=cb.name, op="<", value=low)
        return IntentSpec(
            kind=self.kind,
            table=table,
            projections=[["col", table, proj.name]],
            filters=[f1],
            second_filters=[f2],
        )

    def build(self, intent, realization, ctx) -> Query:
        """Build the SQL AST for the given realization of the intent."""
        proj = intent.projections
        left = SelectCore(
            items=projection_items(proj, {}),
            from_clause=single_from(intent.table),
            where=where_from_filters(intent.filters, ctx, {}),
        )
        if realization == "intersect":
            right = SelectCore(
                items=projection_items(proj, {}),
                from_clause=single_from(intent.table),
                where=where_from_filters(intent.second_filters, ctx, {}),
            )
            return Query(core=left, compounds=[("INTERSECT", right)])
        inner = SelectCore(
            items=projection_items(proj, {}),
            from_clause=single_from(intent.table),
            where=where_from_filters(intent.second_filters, ctx, {}),
        )
        membership = InExpr(
            left=colref(proj[0][2]),
            source=Subquery(query=simple_query(inner)),
        )
        first = where_from_filters(intent.filters, ctx, {})
        left.where = BoolOp(op="AND", terms=[first, membership])
        return simple_query(left)

    def nl(self, intent, ctx, style, rng) -> str:
        """Render the intent as an NL question in the given style."""
        tablep = pluralize(ctx.phrase_table(intent.table, style, rng))
        pcol = pluralize(
            ctx.phrase_column(intent.table, intent.projections[0][2], style, rng)
        )
        p1 = filter_phrase(intent.filters[0], ctx, style, rng)
        p2 = filter_phrase(intent.second_filters[0], ctx, style, rng)
        if intent.nl_variant == "in_and":
            return (
                f"Which {pcol} have {tablep} {p1} as well as {tablep} {p2}?"
            )
        return (
            f"Which {pcol} have both {tablep} {p1} and {tablep} {p2}?"
        )


class UnionArchetype(Archetype):
    """Rows matching either of two predicates: OR vs UNION."""

    kind = "union_op"
    realizations = ("or", "union")
    gold_weights = (0.6, 0.4)

    def sample(self, ctx, rng) -> Optional[IntentSpec]:
        """Draw an IntentSpec from this domain, or None if inapplicable."""
        tables = [t.name for t in ctx.blueprint.tables]
        table = str(rng.choice(tables))
        display = ctx.display_column(table)
        if display is None:
            return None
        f1 = ctx.sample_filter(table, rng)
        f2 = ctx.sample_filter(table, rng)
        if f1 is None or f2 is None:
            return None
        if f1.signature() == f2.signature():
            return None
        if f1.column == display.name or f2.column == display.name:
            return None
        return IntentSpec(
            kind=self.kind,
            table=table,
            projections=[["col", table, display.name]],
            filters=[f1],
            second_filters=[f2],
        )

    def build(self, intent, realization, ctx) -> Query:
        """Build the SQL AST for the given realization of the intent."""
        proj = intent.projections
        if realization == "or":
            cond1 = where_from_filters(intent.filters, ctx, {})
            cond2 = where_from_filters(intent.second_filters, ctx, {})
            core = SelectCore(
                items=projection_items(proj, {}),
                from_clause=single_from(intent.table),
                where=BoolOp(op="OR", terms=[cond1, cond2]),
            )
            return simple_query(core)
        left = SelectCore(
            items=projection_items(proj, {}),
            from_clause=single_from(intent.table),
            where=where_from_filters(intent.filters, ctx, {}),
        )
        right = SelectCore(
            items=projection_items(proj, {}),
            from_clause=single_from(intent.table),
            where=where_from_filters(intent.second_filters, ctx, {}),
        )
        return Query(core=left, compounds=[("UNION", right)])

    def nl(self, intent, ctx, style, rng) -> str:
        """Render the intent as an NL question in the given style."""
        tablep = pluralize(ctx.phrase_table(intent.table, style, rng))
        pcol = ctx.phrase_column(intent.table, intent.projections[0][2], style, rng)
        p1 = filter_phrase(intent.filters[0], ctx, style, rng)
        p2 = filter_phrase(intent.second_filters[0], ctx, style, rng)
        if intent.nl_variant == "union":
            return f"What are the {pcol} of {tablep} either {p1} or {p2}?"
        return f"What are the {pcol} of {tablep} {p1} or {p2}?"
