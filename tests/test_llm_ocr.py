"""Contract tests for the LLM-vision OCR engine (M2), config resolution (M4)
and the API error taxonomy (M5) — all against a fake client; no SDK, no
network (reference behavior: claude_vision_engine.py, _correction.py)."""

import base64

import numpy as np
import pytest

from norsk_historisk_avis_ocr_ray.sources.png import decode_png
from norsk_historisk_avis_ocr_ray.stages import llm_ocr
from norsk_historisk_avis_ocr_ray.stages.llm_ocr import (
    COLUMN_USER_PROMPT,
    ConfigError,
    FatalOcrError,
    HEADER_USER_PROMPT,
    AnthropicVisionOcr,
    LlmCorrector,
    PAGE_USER_PROMPT,
    RetryableOcrError,
    classify_api_error,
    resolve_auth,
    resolve_model,
    select_user_prompt,
)


# --- fake client ---------------------------------------------------------------

class FakeUsage:
    def __init__(self, tin, tout):
        self.input_tokens = tin
        self.output_tokens = tout


class FakeMessage:
    def __init__(self, text, tin=100, tout=50, stop_reason="end_turn"):
        self.content = [type("Block", (), {"text": text})()]
        self.usage = FakeUsage(tin, tout)
        self.stop_reason = stop_reason


class FakeStream:
    def __init__(self, message):
        self._message = message
        self.text_stream = iter([message.content[0].text])

    def __enter__(self):
        return self

    def __exit__(self, *a):
        return False

    def get_final_message(self):
        return self._message


class FakeMessages:
    def __init__(self, replies=None, errors=None):
        self.replies = list(replies or [])
        self.errors = list(errors or [])
        self.calls = []

    def stream(self, **kwargs):
        self.calls.append(kwargs)
        if self.errors:
            raise self.errors.pop(0)
        return FakeStream(self.replies.pop(0))


class FakeClient:
    def __init__(self, replies=None, errors=None):
        self.messages = FakeMessages(replies, errors)


def make_engine(replies=None, errors=None, **kw):
    client = FakeClient(replies, errors)
    sleeps = []
    eng = AnthropicVisionOcr(client_factory=lambda: client,
                             sleep=sleeps.append, backoff_s=0.5, **kw)
    eng.load()
    return eng, client, sleeps


# SDK-shaped exception fakes (classified by class name / status_code)
class RateLimitError(Exception):
    status_code = 429


class AuthenticationError(Exception):
    status_code = 401


class APIConnectionError(Exception):
    pass


class WeirdServerError(Exception):
    status_code = 503


# --- M4 ------------------------------------------------------------------------

def test_resolve_auth_priority():
    assert resolve_auth({"ANTHROPIC_API_KEY": "k"}) == "api_key"
    assert resolve_auth({"ANTHROPIC_API_KEY": "k",
                         "AWS_ACCESS_KEY_ID": "a"}) == "api_key"
    assert resolve_auth({"AWS_ACCESS_KEY_ID": "a"}) == "bedrock"
    assert resolve_auth({"AWS_PROFILE": "p"}) == "bedrock"
    with pytest.raises(ConfigError, match="no Claude credentials"):
        resolve_auth({})


def test_resolve_model_bedrock_mapping():
    class AnthropicBedrock:  # detected by class name
        pass

    assert resolve_model(AnthropicBedrock(), "claude-opus-4-20250514") == \
        "us.anthropic.claude-opus-4-20250514-v1:0"
    assert resolve_model(AnthropicBedrock(), "custom-model") == "custom-model"
    assert resolve_model(FakeClient(), "claude-opus-4-20250514") == \
        "claude-opus-4-20250514"


# --- M5 ------------------------------------------------------------------------

def test_classify_api_error():
    assert classify_api_error(RateLimitError()) == "retryable"
    assert classify_api_error(APIConnectionError()) == "retryable"
    assert classify_api_error(WeirdServerError()) == "retryable"  # 503
    assert classify_api_error(AuthenticationError()) == "fatal"  # by name
    bad = type("SomeError", (Exception,), {"status_code": 404})()
    assert classify_api_error(bad) == "fatal"
    unknown = ValueError("serialization hiccup")
    assert classify_api_error(unknown) == "retryable"


def test_retryable_errors_retry_with_backoff_then_succeed():
    msg = FakeMessage("Transkribert tekst.")
    eng, client, sleeps = make_engine(
        replies=[msg], errors=[RateLimitError(), APIConnectionError()])
    img = np.full((40, 40), 220, np.uint8)
    out = eng.ocr_region(img)
    assert out == "Transkribert tekst."
    assert eng.usage["retries"] == 2
    assert sleeps == [0.5, 1.0]  # exponential backoff
    assert len(client.messages.calls) == 3


def test_retries_exhausted_raises_retryable():
    eng, client, _ = make_engine(errors=[RateLimitError()] * 4, max_attempts=4)
    with pytest.raises(RetryableOcrError, match="retries exhausted"):
        eng.ocr_region(np.zeros((10, 10), np.uint8))
    assert len(client.messages.calls) == 4


def test_fatal_error_opens_circuit():
    eng, client, _ = make_engine(errors=[AuthenticationError("bad key")])
    with pytest.raises(FatalOcrError):
        eng.ocr_region(np.zeros((10, 10), np.uint8))
    n = len(client.messages.calls)
    with pytest.raises(FatalOcrError, match="circuit open"):
        eng.ocr_region(np.zeros((10, 10), np.uint8))
    assert len(client.messages.calls) == n  # no further API traffic


# --- M2 ------------------------------------------------------------------------

def test_prompt_selection_by_region():
    assert select_user_prompt("header", 3) == HEADER_USER_PROMPT
    assert select_user_prompt("column", 3) == COLUMN_USER_PROMPT
    assert select_user_prompt("column", 1) == PAGE_USER_PROMPT


def test_call_carries_prompt_image_and_params():
    msg = FakeMessage("tekst")
    eng, client, _ = make_engine(replies=[msg])
    img = np.full((64, 48), 200, np.uint8)
    eng.ocr_region(img, region_kind="column", n_cols=4)
    call = client.messages.calls[0]
    assert call["temperature"] == 0
    assert call["system"] == llm_ocr.SYSTEM_PROMPT
    content = call["messages"][0]["content"]
    assert content[1]["text"] == COLUMN_USER_PROMPT
    src = content[0]["source"]
    assert src["media_type"] == "image/jpeg"  # reference parity: JPEG ladder
    from norsk_historisk_avis_ocr_ray.sources.jpeg import decode_jpeg

    decoded = decode_jpeg(base64.standard_b64decode(src["data"]))
    assert decoded.shape == (64, 48)  # prepared image, same geometry


def test_token_accounting_accumulates():
    msgs = [FakeMessage("a", 100, 40), FakeMessage("b", 60, 25,
                                                   stop_reason="max_tokens")]
    eng, _, _ = make_engine(replies=msgs)
    eng.ocr_region(np.zeros((8, 8), np.uint8))
    eng.ocr_region(np.zeros((8, 8), np.uint8))
    assert eng.usage["input_tokens"] == 160
    assert eng.usage["output_tokens"] == 65
    assert eng.usage["api_calls"] == 2
    assert eng.usage["truncated"] == 1


def test_engine_registered():
    from norsk_historisk_avis_ocr_ray.stages.ocr import ENGINES

    assert "claude-vision" in ENGINES


def test_engine_in_ocr_task_stage(ray_session):
    """The vision engine runs through LayoutOcrStage as Ray tasks with a fake
    client — the Ray plumbing (pickled factory, per-worker load) is real."""
    import pyarrow as pa

    import ray
    from norsk_historisk_avis_ocr_ray.sources.codec import encode_image
    from norsk_historisk_avis_ocr_ray.stages.ocr import LayoutOcrStage

    img = np.full((60, 80), 230, np.uint8)

    def factory():
        # Self-contained fakes (defined in-function so cloudpickle ships them
        # by value to the worker — test-module classes aren't importable on
        # Ray workers).
        class _Stream:
            def __init__(self, i):
                self._i = i
                self.text_stream = iter([f"side {i}"])

            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

            def get_final_message(self):
                usage = type("U", (), {"input_tokens": 10, "output_tokens": 5})()
                block = type("B", (), {"text": f"side {self._i}"})()
                return type("M", (), {"content": [block], "usage": usage,
                                      "stop_reason": "end_turn"})()

        class _Messages:
            def __init__(self):
                self.n = 0

            def stream(self, **kwargs):
                self.n += 1
                return _Stream(self.n - 1)

        class _Client:
            def __init__(self):
                self.messages = _Messages()

        return AnthropicVisionOcr(client_factory=_Client, sleep=lambda s: None)

    pages = pa.table({
        "media_ref": pa.array(["p0", "p1"], pa.string()),
        "image": pa.array([encode_image(img)] * 2, pa.binary()),
        "width": pa.array([80, 80], pa.int32()),
        "height": pa.array([60, 60], pa.int32()),
        "codec": pa.array(["raw-zlib"] * 2, pa.string()),
    })
    out = (ray.data.from_arrow(pages)
           .map_batches(LayoutOcrStage(factory), batch_format="pyarrow",
                        batch_size=4)
           .to_pandas())
    assert len(out) >= 2
    assert out["error"].isna().all()
    assert all(t.startswith("side ") for t in out["text"])


# --- LLM corrector -------------------------------------------------------------

def test_llm_corrector_success_and_usage():
    client = FakeClient(replies=[FakeMessage("rettet tekst", 30, 10)])
    c = LlmCorrector(client_factory=lambda: client, sleep=lambda s: None)
    c.load()
    assert c.correct("rå tekst") == "rettet tekst"
    assert c.usage["input_tokens"] == 30
    call = client.messages.calls[0]
    assert call["system"] == llm_ocr.CORRECTION_SYSTEM_PROMPT
    assert "rå tekst" in call["messages"][0]["content"]


def test_llm_corrector_retries_a_transient_error():
    client = FakeClient(replies=[FakeMessage("rettet tekst")],
                        errors=[RateLimitError()])
    sleeps = []
    c = LlmCorrector(client_factory=lambda: client, sleep=sleeps.append,
                     backoff_s=0.5)
    c.load()
    assert c.correct("rå tekst") == "rettet tekst"
    assert c.usage["retries"] == 1 and c.usage["api_calls"] == 1
    assert sleeps == [0.5]
    assert len(client.messages.calls) == 2


def test_llm_corrector_fatal_error_opens_circuit():
    client = FakeClient(errors=[AuthenticationError("bad key")])
    c = LlmCorrector(client_factory=lambda: client, sleep=lambda s: None)
    c.load()
    assert c.correct("tekst") is None
    assert c.correct("tekst") is None
    assert len(client.messages.calls) == 1  # no further API traffic


def test_llm_corrector_failure_returns_none():
    # every attempt fails with a retryable error: retries run out → None
    client = FakeClient(errors=[WeirdServerError()] * 3)
    c = LlmCorrector(client_factory=lambda: client, sleep=lambda s: None,
                     max_attempts=3)
    c.load()
    assert c.correct("tekst") is None  # caller falls back to raw text
    assert len(client.messages.calls) == 3
    assert c.usage["retries"] == 2


def test_llm_corrector_empty_passthrough():
    c = LlmCorrector(client_factory=FakeClient, sleep=lambda s: None)
    c.load()
    assert c.correct("") == ""
