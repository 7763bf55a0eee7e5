"""Run manifests: flat key=value records of a command's resolved run.

A manifest captures the command, the tool version, the exact argv (for
replay), the resolved configuration, input file digests, and output
paths.  Content is deterministic for a given invocation, so replaying a
manifest writes byte-identical files, manifest included.
"""

import hashlib

from .dataset import parse_digits, read_text
from .errors import DataError


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, argv: list[str], config: dict,
                   inputs: dict, outputs: dict, version: str) -> None:
    lines = [f"command={command}", f"version={version}"]
    for i, arg in enumerate(argv):
        lines.append(f"argv.{i}={arg}")
    for key in sorted(config):
        lines.append(f"config.{key}={config[key]}")
    for name in sorted(inputs):
        lines.append(f"input.{name}={inputs[name]}")
        lines.append(f"input.{name}.sha256={file_digest(inputs[name])}")
    for name in sorted(outputs):
        lines.append(f"output.{name}={outputs[name]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    """Parse a manifest into {command, version, argv, config, inputs, digests, outputs}.

    ``digests`` maps each input name to the SHA-256 recorded for its file.
    """
    record = {"argv": {}, "config": {}, "inputs": {}, "digests": {}, "outputs": {}}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        if key == "command":
            record["command"] = value
        elif key == "version":
            record["version"] = value
        elif key.startswith("argv."):
            index = parse_digits(key[5:])
            if index is None or index in record["argv"]:
                raise DataError(f"{path}: line {lineno}: bad or repeated argv index in '{key}'")
            record["argv"][index] = value
        elif key.startswith("config."):
            record["config"][key[7:]] = value
        elif key.startswith("input.") and key.endswith(".sha256"):
            record["digests"][key[6:-7]] = value
        elif key.startswith("input."):
            record["inputs"][key[6:]] = value
        elif key.startswith("output."):
            record["outputs"][key[7:]] = value
    if "command" not in record:
        raise DataError(f"{path}: missing command")
    argv = record["argv"]
    if not argv or sorted(argv) != list(range(len(argv))):
        raise DataError(f"{path}: argv lines must be numbered 0..n-1")
    record["argv"] = [argv[i] for i in range(len(argv))]
    if record["argv"][0] != record["command"]:
        raise DataError(f"{path}: command '{record['command']}' does not match "
                        f"argv.0 '{record['argv'][0]}'")
    return record
