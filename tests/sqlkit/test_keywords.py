"""The tokenizer's keyword set."""

from repro.sqlkit.keywords import KEYWORDS


class TestKeywords:
    def test_clause_keywords_present(self):
        for word in ("SELECT", "FROM", "WHERE", "GROUP", "ORDER"):
            assert word in KEYWORDS

    def test_fetch_first_tokens_are_keywords(self):
        for word in ("FETCH", "FIRST", "ROWS", "ONLY"):
            assert word in KEYWORDS

    def test_keywords_are_uppercase(self):
        assert all(w == w.upper() for w in KEYWORDS)
