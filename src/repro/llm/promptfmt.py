"""The prompt text format — rendering and parsing.

Prompts are plain text with ``### Instructions`` / ``### Example`` /
``### Task`` sections.  The format is line-based and fully parseable:
the MockLLM reads schemas, demonstrations, and the task back out of the
prompt text, which keeps the simulation honest — the model only knows
what the prompt says (a pruned schema means pruned knowledge).

Schema lines carry representative column values (§III-A selects a subset
of values per column, following BRIDGE [19]) because value linking is how
both real and simulated LLMs ground filters like Spider-Realistic's
column-less mentions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.schema import Database, Schema


@dataclass
class ColumnInfo:
    """One column as seen in a prompt."""

    name: str
    col_type: str = "text"
    values: list = field(default_factory=list)
    is_primary: bool = False


@dataclass
class SchemaInfo:
    """A schema as seen in a prompt (possibly pruned)."""

    db_id: str = ""
    tables: dict = field(default_factory=dict)  # name -> [ColumnInfo]
    fks: list = field(default_factory=list)  # (t1, c1, t2, c2)

    def table_names(self) -> list:
        """All table names, in schema order."""
        return list(self.tables)

    def columns_of(self, table: str) -> list:
        """Columns of one table as seen in the prompt."""
        return self.tables.get(table.lower(), [])

    def has_column(self, table: str, column: str) -> bool:
        """Whether a column with this name exists (case-insensitive)."""
        return any(c.name.lower() == column.lower() for c in self.columns_of(table))

    def all_columns(self) -> list:
        """Every (table, ColumnInfo) pair."""
        return [
            (table, col) for table, cols in self.tables.items() for col in cols
        ]


class PromptDemo:
    """One demonstration block.

    Its schema lines are parsed on first access of :attr:`schema`: the
    simulated model reads only a demonstration's question and SQL, so
    most parsed prompts never need their demonstrations' schemas.
    """

    def __init__(self, schema_lines: list, question: str, sql: str):
        self.question = question
        self.sql = sql
        self._schema_lines = schema_lines
        self._schema: Optional[SchemaInfo] = None

    @property
    def schema(self) -> SchemaInfo:
        """The block's schema, as an eager parse would give it."""
        if self._schema is None:
            self._schema = _parse_schema(self._schema_lines)
        return self._schema


@dataclass
class ParsedPrompt:
    """A fully parsed prompt."""

    instructions: str = ""
    demos: list = field(default_factory=list)
    task_schema: Optional[SchemaInfo] = None
    task_question: str = ""
    #: Raw body of a ``### Repair`` section (empty on first-pass prompts).
    repair: str = ""


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_schema(
    database: Database,
    schema: Optional[Schema] = None,
    values_per_column: int = 2,
) -> str:
    """Render a schema (by default the database's own; pass a pruned one to
    restrict) with representative values."""
    schema = schema or database.schema
    lines = [f"Database: {schema.db_id}"]
    for table in schema.tables:
        cols = []
        for col in table.columns:
            entry = f"{col.name}:{col.col_type}"
            if table.primary_key and col.key == table.primary_key.lower():
                entry += "*"
            values = _safe_values(database, table.name, col.name, values_per_column)
            if values:
                entry += " [" + "|".join(_fmt_value(v) for v in values) + "]"
            cols.append(entry)
        lines.append(f"Table {table.name} ({', '.join(cols)})")
    if schema.foreign_keys:
        pairs = " ; ".join(
            f"{fk.src_table}.{fk.src_column} = {fk.dst_table}.{fk.dst_column}"
            for fk in schema.foreign_keys
        )
        lines.append(f"Foreign keys: {pairs}")
    return "\n".join(lines)


def _safe_values(database: Database, table: str, column: str, limit: int) -> list:
    try:
        return database.column_values(table, column, limit=limit)
    except (KeyError, ValueError):
        return []


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def render_demo(demo_schema_text: str, question: str, sql: str) -> str:
    """Render one '### Example' block."""
    return f"### Example\n{demo_schema_text}\nQuestion: {question}\nSQL: {sql}"


def render_task(task_schema_text: str, question: str) -> str:
    """Render the trailing '### Task' block."""
    return f"### Task\n{task_schema_text}\nQuestion: {question}\nSQL:"


def build_prompt(
    task_schema_text: str,
    question: str,
    demos: Optional[list] = None,
    instructions: str = "",
) -> str:
    """Assemble a full prompt from pre-rendered pieces.

    ``demos`` is a list of pre-rendered ``### Example`` blocks.
    """
    sections = []
    if instructions:
        sections.append(f"### Instructions\n{instructions}")
    sections.extend(demos or [])
    sections.append(render_task(task_schema_text, question))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TABLE_RE = re.compile(r"^Table (\S+) \((.*)\)$")
_COLUMN_RE = re.compile(
    r"^(?P<name>\w+):(?P<type>\w+)(?P<pk>\*)?(?: \[(?P<values>.*)\])?$"
)
_FK_RE = re.compile(r"(\S+)\.(\S+) = (\S+)\.(\S+)")


def parse_prompt(text: str) -> ParsedPrompt:
    """Parse a prompt back into structured sections."""
    parsed = ParsedPrompt()
    sections = re.split(r"^### ", text, flags=re.MULTILINE)
    for section in sections:
        if not section.strip():
            continue
        header, _, body = section.partition("\n")
        header = header.strip()
        if header == "Instructions":
            parsed.instructions = body.strip()
        elif header == "Repair":
            parsed.repair = body.strip()
        elif header == "Example":
            schema_lines, question, sql = _read_block(body)
            if question or any(map(_TABLE_RE.match, schema_lines)):
                parsed.demos.append(PromptDemo(schema_lines, question, sql))
        elif header == "Task":
            schema_lines, question, _ = _read_block(body)
            schema = _parse_schema(schema_lines)
            if schema.tables or question:
                parsed.task_schema = schema
                parsed.task_question = question
    return parsed


def _read_block(body: str) -> tuple:
    """``(schema lines, question, sql)`` of one block; blank lines dropped."""
    schema_lines = []
    question = ""
    sql = ""
    for line in body.splitlines():
        line = line.strip()
        if line.startswith("Question:"):
            question = line.split(":", 1)[1].strip()
        elif line.startswith("SQL:"):
            sql = line.split(":", 1)[1].strip()
        elif line:
            schema_lines.append(line)
    return schema_lines, question, sql


def _parse_schema(lines: list) -> SchemaInfo:
    schema = SchemaInfo()
    for line in lines:
        if line.startswith("Database:"):
            schema.db_id = line.split(":", 1)[1].strip()
        elif line.startswith("Table "):
            match = _TABLE_RE.match(line)
            if match:
                name, cols_text = match.groups()
                schema.tables[name.lower()] = _parse_columns(cols_text)
        elif line.startswith("Foreign keys:"):
            for fk in _FK_RE.findall(line.split(":", 1)[1]):
                schema.fks.append(tuple(p.lower() for p in fk))
    return schema


def _parse_columns(cols_text: str) -> list:
    columns = []
    for part in _split_columns(cols_text):
        match = _COLUMN_RE.match(part.strip())
        if not match:
            continue
        values = []
        if match.group("values"):
            values = [_parse_value(v) for v in match.group("values").split("|")]
        columns.append(
            ColumnInfo(
                name=match.group("name"),
                col_type=match.group("type"),
                values=values,
                is_primary=bool(match.group("pk")),
            )
        )
    return columns


def _split_columns(text: str) -> list:
    """Split on commas that are not inside a [...] value block."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
