// rdmajoin_lint: project-specific static analysis enforcing the determinism
// contract and the layer DAG (docs/correctness.md, docs/layers.json).
//
//   rdmajoin_lint [--root=REPO_ROOT] [--layers=docs/layers.json]
//                 [--config=tools/lint_config.json]
//                 [--baseline=tools/lint_baseline.json]
//                 [--json-out=FILE] [PATH...]
//
// PATHs (default: src tools bench tests) are files or directories relative to
// the repo root; directories are walked recursively for *.cc / *.h. Exits 0
// when every finding is absorbed by an annotation, the allowlist, or the
// baseline; 1 when unsuppressed findings remain; 2 on usage/configuration
// errors. The findings JSON is deterministic: identical trees produce
// byte-identical documents.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "tools/flags.h"
#include "util/file.h"

namespace {

using ::rdmajoin::FlagTable;
using ::rdmajoin::StatusOr;
using ::rdmajoin::StringFlag;
using ::rdmajoin::lint::BaselineEntry;
using ::rdmajoin::lint::FileInput;
using ::rdmajoin::lint::LayerModel;
using ::rdmajoin::lint::LintConfig;
using ::rdmajoin::lint::LintOptions;
using ::rdmajoin::lint::LintResult;

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string layers_path = "docs/layers.json";
  std::string config_path = "tools/lint_config.json";
  std::string baseline_path = "tools/lint_baseline.json";
  std::string json_out;
  std::vector<std::string> roots;

  FlagTable flags(
      "usage: rdmajoin_lint [--root=DIR] [--layers=FILE] [--config=FILE]\n"
      "                     [--baseline=FILE] [--json-out=FILE] [PATH...]",
      {StringFlag("--root", "DIR", &root, "repository root (default .)"),
       StringFlag("--layers", "FILE", &layers_path,
                  "layer DAG, relative to the root\n(default docs/layers.json)"),
       StringFlag("--config", "FILE", &config_path,
                  "allowlist, relative to the root\n"
                  "(default tools/lint_config.json)"),
       StringFlag("--baseline", "FILE", &baseline_path,
                  "accepted findings, relative to the root\n"
                  "(default tools/lint_baseline.json)"),
       StringFlag("--json-out", "FILE", &json_out, "write the findings as JSON")},
      "exit status: 0 clean, 1 unsuppressed findings, 2 usage or configuration\n"
      "error");
  flags.Positional("PATH...", &roots,
                   "files or directories to scan, relative to the root\n"
                   "(default: src tools bench tests)");
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 2)) {
    return *exit_code;
  }
  if (roots.empty()) roots = {"src", "tools", "bench", "tests"};

  const auto under_root = [&root](const std::string& rel) {
    return (std::filesystem::path(root) / rel).string();
  };

  auto layers_text = rdmajoin::ReadFileToString(under_root(layers_path));
  if (!layers_text.ok()) {
    std::cerr << "rdmajoin_lint: " << layers_text.status().ToString() << "\n";
    return 2;
  }
  auto layers = LayerModel::FromJson(*layers_text);
  if (!layers.ok()) {
    std::cerr << "rdmajoin_lint: " << layers.status().ToString() << "\n";
    return 2;
  }

  LintOptions options;
  options.layers = &*layers;
  auto config_text = rdmajoin::ReadFileToString(under_root(config_path));
  if (config_text.ok()) {
    auto config = LintConfig::FromJson(*config_text);
    if (!config.ok()) {
      std::cerr << "rdmajoin_lint: " << config.status().ToString() << "\n";
      return 2;
    }
    options.config = *config;
  }
  auto baseline_text = rdmajoin::ReadFileToString(under_root(baseline_path));
  if (baseline_text.ok()) {
    auto baseline = rdmajoin::lint::ParseBaseline(*baseline_text);
    if (!baseline.ok()) {
      std::cerr << "rdmajoin_lint: " << baseline.status().ToString() << "\n";
      return 2;
    }
    options.baseline = *baseline;
  }

  auto paths = rdmajoin::lint::CollectSources(root, roots);
  if (!paths.ok()) {
    std::cerr << "rdmajoin_lint: " << paths.status().ToString() << "\n";
    return 2;
  }
  std::vector<FileInput> files;
  files.reserve(paths->size());
  for (const std::string& rel : *paths) {
    auto file = rdmajoin::lint::ReadSource(root, rel);
    if (!file.ok()) {
      std::cerr << "rdmajoin_lint: " << file.status().ToString() << "\n";
      return 2;
    }
    files.push_back(std::move(*file));
  }

  const LintResult result = rdmajoin::lint::RunLint(files, options);

  if (!json_out.empty()) {
    if (!rdmajoin::WriteStringToFile(
                         json_out, rdmajoin::lint::FindingsToJson(result)).ok()) {
      std::cerr << "rdmajoin_lint: cannot write " << json_out << "\n";
      return 2;
    }
  }

  for (const auto& f : result.findings) {
    if (f.baselined) continue;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  for (const BaselineEntry& e : result.burn_down) {
    std::cout << "note: baseline entry (" << e.rule << ", " << e.file
              << ") is stale by " << e.count
              << "; tighten tools/lint_baseline.json\n";
  }
  std::cout << "rdmajoin_lint: " << files.size() << " files, " << result.total
            << " findings (" << result.baselined << " baselined, "
            << result.unsuppressed << " unsuppressed)\n";
  return result.clean() ? 0 : 1;
}
