// Drive the `pnm` binary (or any shell command) as a subprocess, the way a
// user or a script does. The binary's path comes from the build
// (PNM_CLI_PATH), so a test that needs it fails when it is missing.
#pragma once

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace pnm::test {

struct CliResult {
  /// The exit status, or 128 + the signal number when the process (or the
  /// shell running it) was killed by a signal, as a POSIX shell reports it.
  int exit_code = -1;
  std::string out;  ///< stdout and stderr, interleaved
};

inline CliResult run_command(const std::string& command) {
  CliResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return result;
  std::array<char, 4096> buf{};
  while (std::fgets(buf.data(), buf.size(), pipe)) result.out += buf.data();
  int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) result.exit_code = 128 + WTERMSIG(status);
  return result;
}

/// Run the tool with `args`; `env` (e.g. "NAME=value") prefixes the command.
inline CliResult run_cli(const std::string& args, const std::string& env = "") {
  return run_command(env + " '" PNM_CLI_PATH "' " + args);
}

/// The hex digest after "verdict digest: " in `pnm replay` output, or "".
inline std::string verdict_digest(const std::string& out) {
  const std::string key = "verdict digest: ";
  std::size_t at = out.find(key);
  if (at == std::string::npos) return "";
  return out.substr(at + key.size(), out.find('\n', at) - at - key.size());
}

inline std::string read_file(const std::string& path) {
  std::ostringstream body;
  body << std::ifstream(path, std::ios::binary).rdbuf();
  return body.str();
}

}  // namespace pnm::test
