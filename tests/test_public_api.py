"""The documented top-level API must exist and work end to end."""

import repro
import repro.eval
import repro.llm
import repro.obs


class TestPublicAPI:
    def test_all_exports_resolve(self):
        # A name left in an ``__all__`` after its deletion fails here.
        for module in (repro, repro.eval, repro.obs, repro.llm):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    f"{module.__name__}.{name}"
                )

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_flow(self):
        bench = repro.generate_benchmark(
            repro.GeneratorConfig(
                seed=3, train_variants=1, dev_variants=1,
                train_examples_per_db=6, dev_examples_per_db=4,
            )
        )
        purple = repro.Purple(
            repro.MockLLM(repro.GPT4), repro.PurpleConfig(consistency_n=2)
        ).fit(bench.train)
        example = bench.dev.examples[0]
        task = repro.TranslationTask(
            question=example.question,
            database=bench.dev.database(example.db_id),
        )
        sql = purple.translate(task).sql
        assert sql.upper().startswith("SELECT")
        report = repro.evaluate_approach(purple, bench.dev)
        assert 0.0 <= report.em <= 1.0
        purple.close()
