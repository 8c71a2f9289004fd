import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (never per test)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def plan_runs(monkeypatch):
    """The DAG of every Ray Data plan run started in this process while
    the test runs, as ``dag_str``; reading a materialized Dataset back
    from its snapshot starts none."""
    from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        if not isinstance(dag, InputDataBuffer):
            runs.append(dag.dag_str)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return runs
