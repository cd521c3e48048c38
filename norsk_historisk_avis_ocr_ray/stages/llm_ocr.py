"""LLM-vision OCR engine (reference M2) with config resolution (M4) and an
API error taxonomy (M5), behind the existing ``OcrEngine`` protocol.

Mirrors the contract of the reference's flagship engine
(``claude_vision_engine.py``) re-expressed for Ray tasks, where the engine
is built and loaded once per worker process (``stages.ocr.cached_engine``):

- **Prompts** (reference ``claude_vision_engine.py:31-74``): a system prompt
  encoding the column-discipline transcription rules, plus region-specific
  user prompts — full page vs single column vs header — selected the way the
  reference selects them (``:333`` picks the column prompt when a page has
  multiple columns; ``:318-319`` the header prompt for the title region).
- **Auth/model resolution** (reference ``_correction.py:40-123``): env-only
  and non-interactive — a distributed worker can't getpass-prompt, so the
  reference's interactive fallback maps to a clear ``ConfigError``. Priority:
  ``ANTHROPIC_API_KEY`` → direct API; AWS credentials → Bedrock (public model
  id mapping); else error. Client construction happens once per worker
  process in ``load()``.
- **Error taxonomy** (reference ``claude_vision_engine.py:216-260``):
  exceptions classify as *retryable* (connection, timeout, rate limit,
  overloaded, 5xx) — retried in-engine with exponential backoff — or *fatal*
  (auth, permission, bad request), raised immediately. A fatal auth error
  opens a circuit so subsequent calls in the same process fail fast instead of
  hammering the API once per row. The OCR stages catch either into the
  per-row ``error`` column (the job never aborts — policy fix over the
  reference's whole-file abort at ``claude_vision_engine.py:320-321``).
- **Token accounting** (reference ``:310-356`` printed totals): per-call
  usage accumulates in ``self.usage``; the shard runner merges it into each
  shard's lineage record (A2), making counters durable data instead of
  console output.

The ``anthropic`` SDK import is optional and lazy: everything here is
contract-tested against a fake client and never touches the network in CI.
"""

from __future__ import annotations

import base64
import os
import time
from typing import Any, Callable

import numpy as np

from ..functions.imageprep import encode_under_limit, prepare_image

# --- prompts (structure per claude_vision_engine.py:31-74) -------------------

SYSTEM_PROMPT = """\
You are an expert OCR transcriptionist for scanned historical Norwegian \
newspapers. Produce an accurate, clean transcription of the text in the image.

Rules:
- Determine the column layout first. Transcribe one column at a time, left \
to right, reading each column fully top to bottom.
- Never merge text across a column boundary; a sentence that changes topic \
mid-line signals you have crossed columns.
- Rejoin words hyphenated across line breaks inside a column.
- Emit flowing paragraphs, keeping the original paragraph breaks; keep \
verse line breaks as printed.
- Keep «» quotation marks; put section headings on their own lines.
- Append [?] after a best-guess reading of an illegible word.
- Output the transcription only — no commentary, headers, or metadata.
- Transcribe every word; never summarize or abbreviate. Stop mid-sentence \
rather than inserting any placeholder for omitted content.\
"""

PAGE_USER_PROMPT = """\
Transcribe the COMPLETE text of this newspaper page. Identify the column \
layout first, then read each column fully, left to right. Rejoin hyphenated \
line-break words. Output clean flowing text, preserving paragraph breaks. \
Do not skip or summarize anything.\
"""

COLUMN_USER_PROMPT = """\
Transcribe the text of this single newspaper column. Rejoin hyphenated \
line-break words. Output clean flowing text, preserving paragraph breaks. \
Do not skip or summarize anything.\
"""

HEADER_USER_PROMPT = """\
Transcribe the text of this newspaper header/title area (title, subtitle \
and/or byline at the top of the page). Output clean text preserving the \
heading structure. Do not skip or summarize anything.\
"""


def select_user_prompt(region_kind: str, n_cols: int) -> str:
    """Reference's prompt choice: header region → header prompt; otherwise
    the column prompt on multi-column pages, full-page prompt on single."""
    if region_kind in ("title", "header"):
        return HEADER_USER_PROMPT
    return COLUMN_USER_PROMPT if n_cols > 1 else PAGE_USER_PROMPT


# --- M4: config / auth / model resolution ------------------------------------

DEFAULT_MODEL = "claude-opus-4-20250514"
DEFAULT_REGION = "eu-north-1"

# Public Bedrock model-id mapping (reference _correction.py:40-43).
BEDROCK_MODEL_MAP = {
    "claude-sonnet-4-20250514": "us.anthropic.claude-sonnet-4-20250514-v1:0",
    "claude-opus-4-20250514": "us.anthropic.claude-opus-4-20250514-v1:0",
}


class ConfigError(Exception):
    """No usable credentials/SDK — a configuration problem, never retried."""


def resolve_auth(env: dict | None = None) -> str:
    """Return 'api_key' or 'bedrock' from the environment (non-interactive:
    the reference's getpass fallback is not possible on a Ray worker)."""
    env = os.environ if env is None else env
    if env.get("ANTHROPIC_API_KEY"):
        return "api_key"
    if env.get("AWS_PROFILE") or env.get("AWS_ACCESS_KEY_ID"):
        return "bedrock"
    raise ConfigError(
        "no Claude credentials: set ANTHROPIC_API_KEY for the direct API or "
        "AWS_PROFILE/AWS_ACCESS_KEY_ID for Bedrock")


def make_client(auth_kind: str, region: str = DEFAULT_REGION) -> Any:
    try:
        import anthropic
    except ImportError as e:
        raise ConfigError(
            "the 'anthropic' SDK is not installed in this environment; "
            "install it or inject a client_factory") from e
    if auth_kind == "bedrock":
        return anthropic.AnthropicBedrock(aws_region=region)
    return anthropic.Anthropic()


def resolve_model(client: Any, model: str) -> str:
    """Bedrock clients need the Bedrock model id (reference
    _correction.py:117-123). Detected by class name so fakes work SDK-free."""
    if type(client).__name__ == "AnthropicBedrock":
        return BEDROCK_MODEL_MAP.get(model, model)
    return model


# --- M5: API error taxonomy ---------------------------------------------------

RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504, 529}
_FATAL_NAMES = {"AuthenticationError", "PermissionDeniedError",
                "BadRequestError", "NotFoundError", "UnprocessableEntityError"}
_RETRYABLE_NAMES = {"APIConnectionError", "APITimeoutError", "RateLimitError",
                    "InternalServerError", "OverloadedError"}


class RetryableOcrError(Exception):
    """Transient API failure; retries exhausted."""


class FatalOcrError(Exception):
    """Non-retryable API failure (auth/permission/bad request)."""


def classify_api_error(exc: BaseException) -> str:
    """'retryable' | 'fatal', by exception class name (covers the anthropic
    SDK hierarchy without importing it) then by ``status_code``."""
    for klass in type(exc).__mro__:
        if klass.__name__ in _FATAL_NAMES:
            return "fatal"
        if klass.__name__ in _RETRYABLE_NAMES:
            return "retryable"
    status = getattr(exc, "status_code", None)
    if status is not None:
        return "retryable" if status in RETRYABLE_STATUS else "fatal"
    # unknown exceptions (network stack, serialization): retry conservatively
    return "retryable"


# --- M2: the engine -----------------------------------------------------------

MAX_IMAGE_BYTES = 5 * 1024 * 1024  # API limit on raw encoded bytes


class AnthropicVisionOcr:
    """Vision-OCR engine for the OCR stages (``OcrEngine`` protocol:
    ``load()`` once per worker process, ``ocr_region(img, ...) -> str`` per
    region).

    ``client_factory`` injects a fake for tests; production leaves it None
    and resolves auth from the environment in ``load()``.
    """

    name = "claude-vision"

    def __init__(
        self,
        model: str = DEFAULT_MODEL,
        region: str = DEFAULT_REGION,
        max_tokens: int = 16384,
        max_attempts: int = 4,
        backoff_s: float = 1.0,
        client_factory: Callable[[], Any] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.model = model
        self.region = region
        self.max_tokens = max_tokens
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._client_factory = client_factory
        self._sleep = sleep
        self.client: Any = None
        self.model_id: str | None = None
        self._circuit_open: str | None = None
        self.usage = {"input_tokens": 0, "output_tokens": 0, "api_calls": 0,
                      "retries": 0, "truncated": 0}

    def load(self) -> None:
        if self._client_factory is not None:
            self.client = self._client_factory()
        else:
            self.client = make_client(resolve_auth(), self.region)
        self.model_id = resolve_model(self.client, self.model)

    def ocr_region(self, img: np.ndarray, region_kind: str = "column",
                   n_cols: int = 1, **_: Any) -> str:
        # JPEG quality ladder + "image/jpeg" media type — reference parity
        # (claude_vision_engine.py:107-127); the raw encoded byte length is
        # what the API limit applies to, not the base64 string.
        payload, _w, _h = encode_under_limit(
            prepare_image(img), max_bytes=MAX_IMAGE_BYTES, codec="jpeg")
        b64 = base64.standard_b64encode(payload).decode("ascii")
        return self._call_api(SYSTEM_PROMPT, [
            {"type": "image",
             "source": {"type": "base64", "media_type": "image/jpeg",
                        "data": b64}},
            {"type": "text", "text": select_user_prompt(region_kind, n_cols)},
        ])

    # -- internals ------------------------------------------------------------

    def _call_api(self, system: str, content: str | list) -> str:
        """One user message through the retry, backoff and circuit-breaker
        policy: the reply's text, or ``RetryableOcrError`` /
        ``FatalOcrError``."""
        if self._circuit_open is not None:
            raise FatalOcrError(
                f"circuit open after fatal API error: {self._circuit_open}")
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            try:
                return self._one_call(system, content)
            except Exception as exc:
                kind = classify_api_error(exc)
                if kind == "fatal":
                    self._circuit_open = f"{type(exc).__name__}: {exc}"
                    raise FatalOcrError(self._circuit_open) from exc
                last = exc
                if attempt < self.max_attempts - 1:
                    self.usage["retries"] += 1
                    self._sleep(self.backoff_s * (2 ** attempt))
        raise RetryableOcrError(
            f"retries exhausted ({self.max_attempts} attempts): "
            f"{type(last).__name__}: {last}") from last

    def _one_call(self, system: str, content: str | list) -> str:
        # Streaming call, temperature=0 (claude_vision_engine.py:157-195);
        # draining text_stream keeps long transcriptions from timing out.
        with self.client.messages.stream(
            model=self.model_id,
            max_tokens=self.max_tokens,
            temperature=0,
            system=system,
            messages=[{"role": "user", "content": content}],
        ) as stream:
            for _ in stream.text_stream:
                pass
            message = stream.get_final_message()
        self.usage["api_calls"] += 1
        self.usage["input_tokens"] += message.usage.input_tokens
        self.usage["output_tokens"] += message.usage.output_tokens
        if message.stop_reason == "max_tokens":
            self.usage["truncated"] += 1
        return message.content[0].text


# --- LLM correction pass (reference _correction.py:126-168) -------------------

CORRECTION_SYSTEM_PROMPT = """\
You are an expert proofreader of historical Norwegian text. You receive raw \
OCR output from a 1950s Norwegian newspaper scan containing character-level \
errors typical of fraktur/antiqua misreads.

Rules:
- Fix clear OCR confusions (rn→m, li→h, cl→d, ø↔o, æ↔ae, doubled or \
dropped letters) and garbled words whose correct Norwegian reading is \
obvious from context.
- Keep the original paragraph structure, line breaks, «» quotes, headings \
and verse formatting exactly.
- Keep the period orthography — do not modernize spelling or rephrase.
- Leave ambiguous words as-is with [?] appended; never delete a word — \
every input word must appear in the output.
- Output only the corrected text, no commentary.\
"""

CORRECTION_USER_PROMPT = ("Correct OCR errors in the following text from a "
                          "1950s Norwegian newspaper. Fix only clear "
                          "misreadings; preserve original spelling and "
                          "structure.\n\n{text}")


class LlmCorrector:
    """LLM slot for the ``correct(text) -> str | None`` surface the
    deterministic ``NorwegianNormalizer`` implements (``stages.correct``).
    Each call goes through the engine's retry, backoff and circuit-breaker
    policy (``max_attempts``, ``backoff_s``). Returns None once that fails —
    the caller falls back to the uncorrected text (reference
    ``tesseract_claude_engine.py:124-137`` fallback semantics)."""

    def __init__(self, model: str = DEFAULT_MODEL, region: str = DEFAULT_REGION,
                 max_tokens: int = 16384, max_attempts: int = 3,
                 backoff_s: float = 1.0,
                 client_factory: Callable[[], Any] | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self._engine = AnthropicVisionOcr(
            model=model, region=region, max_tokens=max_tokens,
            max_attempts=max_attempts, backoff_s=backoff_s,
            client_factory=client_factory, sleep=sleep)

    def load(self) -> None:
        self._engine.load()

    @property
    def usage(self) -> dict:
        return self._engine.usage

    def correct(self, text: str) -> str | None:
        if not text:
            return text
        try:
            return self._engine._call_api(
                CORRECTION_SYSTEM_PROMPT,
                CORRECTION_USER_PROMPT.format(text=text))
        except (RetryableOcrError, FatalOcrError):
            return None
