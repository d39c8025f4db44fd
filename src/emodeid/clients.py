"""Inference clients: remote services plus offline mock fixtures.

A client is any object with ``generate(prompt, frames, spectrograms) -> str``
(MLLM) or ``complete(prompt) -> str`` (judge); ``close()`` and ``deterministic``
are optional. ``requests`` is imported only where a request is sent.

Remote payloads carry frames and spectrograms as base64-encoded arrays with
shape metadata. Mock clients replay transcripts from a fixture file keyed by
a SHA-256 digest of the request (see ``mllm_request_digest``), which makes
end-to-end runs fully deterministic and offline-testable.
"""

from __future__ import annotations

import base64
import hashlib
import math
import threading
import time

import numpy as np

from .errors import ClientUnavailableError, InvalidParamError


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data_b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def mllm_request_payload(prompt: str, frames, spectrograms) -> dict:
    return {
        "prompt": prompt,
        "frames": [encode_array(f) for f in frames],
        "spectrograms": [encode_array(s) for s in spectrograms],
    }


DIGEST_SCHEME = "v3"


def mllm_request_digest(prompt: str, frames, spectrograms) -> str:
    """SHA-256 over the scheme tag, the prompt, the array counts, and each
    array's shape, dtype and C-order bytes; the arrays are never copied
    into an encoded payload."""
    h = hashlib.sha256(f"emodeid-mllm-request {DIGEST_SCHEME}\n".encode("ascii"))
    text = prompt.encode("utf-8")
    h.update(b"%d\n" % len(text))
    h.update(text)
    h.update(b"%d %d\n" % (len(frames), len(spectrograms)))
    for arr in (*frames, *spectrograms):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape} {arr.dtype.str}\n".encode("ascii"))
        h.update(arr)
    return h.hexdigest()


def _decode_array(enc: dict) -> np.ndarray:
    data = base64.b64decode(enc["data_b64"])
    return np.frombuffer(data, dtype=np.dtype(enc["dtype"])).reshape(enc["shape"])


def request_digest(payload: dict) -> str:
    """The digest of an ``mllm_request_payload``: the same key as
    ``mllm_request_digest`` on the arrays it encodes."""
    return mllm_request_digest(
        payload["prompt"],
        [_decode_array(f) for f in payload["frames"]],
        [_decode_array(s) for s in payload["spectrograms"]],
    )


class JsonEndpoint:
    """POST JSON to one URL; every failure surfaces as ClientUnavailableError.

    Network errors, undecodable or too deeply nested replies and 5xx are
    retried with exponential backoff; a 4xx, or a 200 whose JSON is not an
    object, is raised at once. Each thread gets its own session, as
    ``run_batch`` calls clients from a pool; ``close`` closes them all. The
    remote clients and detector subclass it and add only their request method.
    """

    def __init__(self, url, auth_token=None, timeout_s=120.0, max_attempts=3, backoff_s=1.0):
        if max_attempts < 1:
            raise InvalidParamError(f"max_attempts must be at least 1, not {max_attempts}")
        if not 0.0 < timeout_s < math.inf:
            raise InvalidParamError(f"timeout_s must be positive and finite, not {timeout_s}")
        self.url = url
        self.headers = {"Authorization": f"Bearer {auth_token}"} if auth_token else {}
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._local = threading.local()
        self._sessions = []
        self._lock = threading.Lock()

    def _session(self):
        import requests

        local = self._local
        if not hasattr(local, "session"):
            local.session = requests.Session()
            with self._lock:
                self._sessions.append(local.session)
        return local.session

    def close(self) -> None:
        """Close every thread's session; a later ``post`` opens new ones."""
        with self._lock:
            sessions, self._sessions = self._sessions, []
            self._local = threading.local()
        for session in sessions:
            session.close()

    def post(self, payload: dict) -> dict:
        """The reply's JSON object; a reply of any other shape is a client error."""
        import requests

        last = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_s * 2 ** (attempt - 1))
            try:
                resp = self._session().post(
                    self.url, json=payload, timeout=self.timeout_s, headers=self.headers
                )
                if resp.status_code < 400:
                    body = resp.json()
                    if isinstance(body, dict):
                        return body
                    raise ClientUnavailableError(
                        f"{self.url} returned a {type(body).__name__}, not an object")
            except (requests.RequestException, ValueError, RecursionError) as exc:
                last = exc
                continue
            if resp.status_code < 500:
                raise ClientUnavailableError(f"{self.url} returned {resp.status_code}")
            last = f"returned {resp.status_code}"
        raise ClientUnavailableError(
            f"{self.url} unreachable after {self.max_attempts} attempts: {last}")

    def post_for_text(self, payload: dict) -> str:
        """The reply's non-blank ``text`` field."""
        text = self.post(payload).get("text", "")
        if not isinstance(text, str):
            raise ClientUnavailableError(f"{self.url} returned a {type(text).__name__} text field")
        if not text.strip():
            raise ClientUnavailableError(f"{self.url} returned an empty response")
        return text


class RemoteMllmClient(JsonEndpoint):
    def generate(self, prompt: str, frames, spectrograms) -> str:
        return self.post_for_text(mllm_request_payload(prompt, frames, spectrograms))


class RemoteLlmClient(JsonEndpoint):
    def complete(self, prompt: str) -> str:
        return self.post_for_text({"prompt": prompt})


class FixtureReplay:
    """Replays canned texts keyed by request digest; a missing key is a client error."""

    deterministic = True

    def __init__(self, fixtures: dict[str, str]):
        self.fixtures = dict(fixtures)

    def _replay(self, digest: str, what: str, hint: str = "") -> str:
        if digest not in self.fixtures:
            raise ClientUnavailableError(f"no fixture {what} {digest}{hint}")
        return self.fixtures[digest]

    def close(self) -> None:
        """Nothing to release."""


class MockMllmClient(FixtureReplay):
    """Replays transcripts keyed by the request digest."""

    def generate(self, prompt: str, frames, spectrograms) -> str:
        return self._replay(
            mllm_request_digest(prompt, frames, spectrograms), "transcript for request",
            f" (digest scheme {DIGEST_SCHEME}; regenerate fixture files written before it)",
        )


class MockLlmClient(FixtureReplay):
    """Replays replies keyed by the digest of the prompt text."""

    @staticmethod
    def prompt_digest(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    def complete(self, prompt: str) -> str:
        return self._replay(self.prompt_digest(prompt), "reply for prompt")
