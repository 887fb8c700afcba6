"""Cooperative effects shared by the virtual and live transport backends.

Client actors and sidecar handlers are written once, as generators that
yield effects instead of blocking:

    response = yield from link.exchange(request)   # unary round trip
    yield Sleep(delay_ns)                          # pause this actor

A link's exchange() is a generator step. A virtual link (sim.py) runs the
hop inside the caller's generator, so its event loop only sees Sleep. A
TCP link yields one Call: the TCP backend's selector loop (tcp.py)
performs it without blocking and resumes the generator when the response
arrives, while drive(), the blocking interpreter for code off that loop,
performs it with the link's send() and turns Sleep into a real sleep.
Handlers may also be plain
functions that return a response directly; invoke_handler() normalizes
both shapes and converts uncaught handler exceptions into ERROR responses
so one bad request never takes down a connection or a simulation. The
virtual hop runs the handler in its own frame instead, with the same
checks; handler_failure() builds the ERROR response for both.
"""

from __future__ import annotations

import types
from typing import Any, Callable, Generator, NamedTuple, Protocol, Union

from .clock import Clock
from .wire import KIND_REQUEST, Message

Handler = Callable[[Message], Union[Message, Generator]]


class Link(Protocol):
    """Unary forwarding interface: one request in, one response out."""

    def exchange(self, request: Message) -> Generator: ...


class TransportError(Exception):
    """Request could not complete: connection refused, timeout, bad peer."""


class Sleep(NamedTuple):
    duration_ns: int


class Call(NamedTuple):
    """One round trip over a link: drive() performs it as link.send(message),
    the TCP backend's loop without blocking."""

    link: Any  # drive() needs a blocking send(request) -> response; the loop a TcpLink
    message: Message


def invoke_handler(handler: Handler, request: Message) -> Generator:
    """Run a handler against one request, yielding its effects through.

    Returns the handler's response; any exception the handler lets escape,
    or a result that is not a response Message, becomes the status-ERROR
    response handler_failure() builds.
    """
    try:
        response = handler(request)
        if isinstance(response, types.GeneratorType):
            response = yield from response
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return handler_failure(request, exc)
    if not isinstance(response, Message) or response.kind == KIND_REQUEST:
        return handler_failure(request)
    return response


def handler_failure(request: Message, exc: Exception | None = None) -> Message:
    """The status-ERROR response standing in for a handler that failed.

    exc is the exception the handler let escape; None means it produced
    something other than a response Message. The response carries the
    exception's type and text. invoke_handler() and the virtual hop
    (sim.VirtualLink.exchange) both answer a failed handler with it.
    """
    if exc is None:
        exc = TypeError("handler must produce a response Message")
    return Message.error_response(request.method, f"{type(exc).__name__}: {exc}")


def drive(task: Union[Message, Generator], clock: Clock) -> Message:
    """Run an effect generator to completion against real time and links.

    Sleep waits on the clock; Call performs a blocking link.send(). A
    TransportError from a link is thrown into the generator so the actor
    can handle it; unhandled, it propagates to the caller.
    """
    if isinstance(task, Message):
        return task
    value: Any = None
    error: BaseException | None = None
    while True:
        try:
            if error is not None:
                effect = task.throw(error)
            else:
                effect = task.send(value)
        except StopIteration as stop:
            return stop.value
        value, error = None, None
        if isinstance(effect, Sleep):
            clock.sleep_until(clock.now_ns() + effect.duration_ns)
        elif isinstance(effect, Call):
            try:
                value = effect.link.send(effect.message)
            except TransportError as exc:
                error = exc
        else:
            raise TypeError(f"unknown effect {effect!r}")


class DirectLink:
    """In-process link calling a handler with no latency.

    Useful for unit tests and for co-deployed components that share a
    process. exchange() runs the handler inside the caller's generator;
    send() drives it to completion against the clock.
    """

    def __init__(self, handler: Handler, clock: Clock) -> None:
        self._handler = handler
        self._clock = clock

    def exchange(self, request: Message) -> Generator:
        return (yield from invoke_handler(self._handler, request))

    def send(self, request: Message) -> Message:
        return drive(self.exchange(request), self._clock)
