"""packrun: message-passing runs built around a self-describing buffer.

The pieces, bottom up:

- idl: type definitions and the registry they compile into.
- pack: dynamic values and the two wire encodings (Native, Portable).
- transport / mesh: point-to-point and collective delivery between ranks,
  in-process or over the socket connections the launcher makes between them.
- msgbuf: the user-facing buffer that packs values and moves itself.
- spmd: scoped enter/exit for one rank of a run.
- slave: the master-slave task farm.
- launcher / cli: start N ranks (mprun) and the utility tools.

A public name's submodule is imported on the first use of that name (PEP 562),
so a rank loads only the submodules it uses.
"""

import importlib

# The submodule `pack` and its function `pack` share a name: importing the
# submodule binds the module to `packrun.pack`, and `__getattr__` never runs for
# a name that is bound. Bind the function over it once, before anything else can.
from .pack import pack

__version__ = "0.1.0"

_EXPORTS = {
    "idl": "Arm DuplicateField DuplicateType FieldDescriptor FixedArray IdlError IdlSyntaxError"
           " IllegalRecursion Named Primitive PrimTag RecordType Sequence TypeRegistry"
           " UnresolvedType VariantType format_descriptor format_descriptors format_kind"
           " parse_idl parse_kind",
    "launcher": "LaunchError LaunchPlan SpawnFailure launch",
    "msgbuf": "MsgBuf",
    "pack": "Buffer Encoding MalformedBool MalformedByte MalformedString MalformedVariantTag"
            " PackError Prim Rec SchemaMismatch Seq Str Truncated UnknownType Var decode_value"
            " encode_value infer_kind pack unpack",
    "slave": "FARM_TAG STOP DuplicateSelector HandlerError HandlerTable MasterPool NoIdleSlave"
             " NoOutstanding NoSlaves SlaveError TableMismatch slave_loop",
    "spmd": "AlreadyActive GlobalScopeError SpmdContext SpmdError spmd_enter spmd_exit",
    "transport": "ANY NOT_MEMBER AlreadyInitialized BackendKind Communicator EmptySubset Finalized"
                 " InvalidRank InvalidRoot RecvTimeout RendezvousTimeout"
                 " SegmentCountMismatch SelfSend TransportContext TransportError WorldConfig init",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
