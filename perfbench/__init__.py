"""Repository benchmark: packet, fluid and compiler workloads (see NOTES.md)."""
