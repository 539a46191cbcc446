"""Table 5 — end-to-end latency on the real mobile workloads.

Prefill + decode over the five dataset length distributions.  llm.npu
achieves the lowest end-to-end latency on every workload; the gap is
largest for long-prompt/short-output workloads (LongBench) and smallest
for the decode-heavy Persona-Chat (llm.npu's prototype decodes on the
CPU, §4.3).
"""

from conftest import show_and_archive

from repro.eval.latency import table5_e2e


def _rows_for(table, workload, model):
    return {row[2]: row for row in table.rows
            if row[0] == workload and row[1] == model}


def test_table5_regenerates(once):
    table = once(table5_e2e,
                 models=("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"),
                 workload_names=("email_reply", "qa_retrieval",
                                 "ui_automation", "ui_automation_short",
                                 "chat_summary"),
                 n_samples=3)
    show_and_archive(table, "table5.txt")

    for workload in ("email_reply", "qa_retrieval", "ui_automation",
                     "ui_automation_short", "chat_summary"):
        for model in ("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"):
            rows = _rows_for(table, workload, model)
            ours = rows["llm.npu"]
            for name, row in rows.items():
                if name == "llm.npu":
                    continue
                if workload == "chat_summary" and name == "TFLite-GPU":
                    # Persona-Chat is decode-heavy and llm.npu's prototype
                    # decodes on the CPU; the paper's own margin over
                    # TFLite here is just 1.02x (Gemma-2B), i.e. a
                    # near-tie — allow one either way within 5%.
                    assert row[3] > ours[3] * 0.95, (workload, model, name)
                else:
                    assert row[3] > ours[3], (workload, model, name)

    # structural claims:
    qwen_email = _rows_for(table, "email_reply", "Qwen1.5-1.8B")
    qwen_chat = _rows_for(table, "chat_summary", "Qwen1.5-1.8B")

    def speedup(rows, engine):
        return float(rows[engine][-1].rstrip("x"))

    # long-prompt workloads show larger speedups than decode-heavy ones
    for engine in ("llama.cpp-CPU", "MLC-GPU"):
        assert speedup(qwen_email, engine) > speedup(qwen_chat, engine)

    # Persona-Chat: llm.npu's CPU decode limits the gap (paper: ~1.1-3.5x
    # over the strong baselines)
    assert speedup(qwen_chat, "MNN-CPU") < 6.0

    # LongBench: large factors vs CPU engines (paper: 23.0-46.2x llama.cpp)
    assert speedup(qwen_email, "llama.cpp-CPU") > 8.0
