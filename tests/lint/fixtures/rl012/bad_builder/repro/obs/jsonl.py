"""Toy registry: two kinds, one optional field."""

__all__ = ["EVENT_SCHEMAS"]


class EventSchema:
    def __init__(self, required, optional=frozenset()):
        self.required = required
        self.optional = optional


EVENT_SCHEMAS = {
    "ping": EventSchema(required={"kind", "t"}),
    "pong": EventSchema(required={"kind", "t", "val"}, optional={"note"}),
}
