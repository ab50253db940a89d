// Misuse of the numaplace_cli binary: every unusable input exits with
// status 2 and a one-line message on stderr, before any model is trained
// and without reaching an internal NP_CHECK.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct CliRun {
  int status = -1;
  std::string out;
  std::string err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string ScratchPath(const std::string& name) {
  return ::testing::TempDir() + "numaplace_cli_test_" + std::to_string(getpid()) + "_" +
         name;
}

// Runs the CLI with `args` (split by the shell), capturing both streams.
CliRun RunCli(const std::string& args) {
  const std::string out_path = ScratchPath("stdout.txt");
  const std::string err_path = ScratchPath("stderr.txt");
  const std::string command =
      std::string(NUMAPLACE_CLI) + " " + args + " >" + out_path + " 2>" + err_path;
  const int raw = std::system(command.c_str());
  CliRun run;
  run.status = raw != -1 && WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  run.out = ReadFile(out_path);
  run.err = ReadFile(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return run;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// Applies `edit` to each line of `text` (line index, line) and rejoins them.
std::string EditLines(const std::string& text,
                      const std::function<std::string(size_t, const std::string&)>& edit) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  for (size_t index = 0; std::getline(in, line); ++index) {
    out += edit(index, line) + "\n";
  }
  return out;
}

// Shape edits of a saved model (numaplace-perf-model-v1: tag, inputs,
// scale, placement ids, forest header, then trees). Each parses.
std::string DropLastPlacementId(const std::string& model) {
  return EditLines(model, [](size_t index, const std::string& line) {
    if (index != 3) {
      return line;
    }
    std::istringstream ids(line);
    size_t count = 0;
    ids >> count;
    std::string out = std::to_string(count - 1);
    for (size_t i = 0; i + 1 < count; ++i) {
      int id = 0;
      ids >> id;
      out += " " + std::to_string(id);
    }
    return out;
  });
}

std::string WidenFirstTree(const std::string& model) {
  bool done = false;
  return EditLines(model, [&](size_t, const std::string& line) {
    if (done || line.rfind("tree ", 0) != 0) {
      return line;
    }
    done = true;
    return line.substr(0, line.rfind(' ')) + " 5";
  });
}

// Every leaf of the first tree keeps only its first value.
std::string CutFirstTreeLeaves(const std::string& model) {
  int trees_seen = 0;
  return EditLines(model, [&](size_t, const std::string& line) {
    if (line.rfind("tree ", 0) == 0) {
      ++trees_seen;
      return line;
    }
    std::istringstream node(line);
    std::string feature;
    std::string threshold;
    int left = 0;
    int right = 0;
    size_t count = 0;
    std::string first_value;
    node >> feature >> threshold >> left >> right >> count >> first_value;
    if (trees_seen != 1 || !node || left != -1) {
      return line;
    }
    return feature + " " + threshold + " -1 " + std::to_string(right) + " 1 " + first_value;
  });
}

TEST(CliMisuse, RejectsUnusableInputBeforeTraining) {
  const std::string model_path = ScratchPath("model.txt");
  const std::string metrics_path = ScratchPath("metrics.jsonl");
  const std::string garbage_model = ScratchPath("garbage_model.txt");
  const std::string empty_model = ScratchPath("empty_model.txt");
  const std::string tag_only_model = ScratchPath("tag_only_model.txt");
  WriteFile(garbage_model, "not a model\n1 2 3\n");
  WriteFile(empty_model, "");
  WriteFile(tag_only_model, "numaplace-perf-model-v1\n");
  // Edited copies of a trained model, each still parseable, whose shapes
  // disagree: a tree whose leaves are narrower than the forest's target
  // count, fewer placement ids than targets, a tree reading 5 features
  // where a performance model has 3.
  const std::string trained_model = ScratchPath("trained_model.txt");
  const std::string short_leaf_model = ScratchPath("short_leaf_model.txt");
  const std::string short_ids_model = ScratchPath("short_ids_model.txt");
  const std::string wide_tree_model = ScratchPath("wide_tree_model.txt");
  const CliRun train = RunCli("train intel 16 " + trained_model);
  ASSERT_EQ(train.status, 0) << train.err;
  const CliRun trained_predict = RunCli("predict " + trained_model + " 1e5 1e5");
  ASSERT_EQ(trained_predict.status, 0) << trained_predict.err;
  const std::string trained_text = ReadFile(trained_model);
  WriteFile(short_leaf_model, CutFirstTreeLeaves(trained_text));
  WriteFile(short_ids_model, DropLastPlacementId(trained_text));
  WriteFile(wide_tree_model, WidenFirstTree(trained_text));
  const std::vector<std::string> cases = {
      // Container size out of range for the machine.
      "placements amd 0",
      "placements amd -3",
      "placements amd 999",
      "train amd 0 " + model_path,
      "train amd 999 " + model_path,
      "schedule amd 0 2",
      "schedule amd 999 2",
      "fleet amd,intel 0 2",
      // Integer arguments with trailing text, or outside int's range.
      "placements amd 16abc",
      "train amd 16x " + model_path,
      "schedule amd 16x 2",
      "schedule amd 16 2x first-fit",
      "fleet amd,intel 16 2x first-fit",
      "fleet amd,intel 16 2 --cells 4294967298",
      "fleet amd,intel 16 2 --fail 4294967296@5",
      "placements amd 99999999999",
      // Sizes with no balanced spread over the machine's nodes or caches.
      "placements amd 63",
      "placements intel 25",
      "train intel 25 " + model_path,
      "schedule amd 63 2",
      "fleet amd 63 2 first-fit",
      "fleet intel,amd 25 2",
      // Balanced sizes that no packing of the machine's nodes can hold.
      "schedule amd 25 2 first-fit",
      "fleet amd 25 2 first-fit",
      // No machine in the fleet fits the container.
      "fleet zen,zen 64 2",
      // A model is needed but AMD has one important placement at 7 vCPUs.
      "train amd 7 " + model_path,
      "schedule amd 7 2",
      "fleet amd,intel 7 2",
      // Machine-event targets outside the fleet.
      "fleet amd,intel 16 2 --fail 5@100",
      "fleet amd,intel 16 2 --drain rack:2@100",
      "fleet amd,intel 16 2 --rejoin zone:1@100",
      // Machine-event times that are not finite.
      "fleet amd,intel 16 2 --fail 0@nan",
      "fleet amd,intel 16 2 --fail 0@inf",
      // More zones than the fleet's racks (two machines default to one
      // rack).
      "fleet amd,intel 16 2 first-fit --zones 3",
      "fleet amd,intel 16 2 first-fit --racks 2 --zones 3",
      // Real-valued flags that are not finite, or a snapshot interval finer
      // than a sim second.
      "fleet amd,intel 16 2 first-fit --metrics-out " + metrics_path +
          " --metrics-interval nan",
      "fleet amd,intel 16 2 first-fit --metrics-interval 0.5",
      "fleet amd,intel 16 2 first-fit --spread-weight nan",
      "fleet amd,intel 16 2 first-fit --spread-weight inf",
      // A negative fleet-op probe count, and the retired full-scan flag
      // (--fleet-probes 0 is the full scan).
      "fleet amd,intel 16 2 first-fit --fleet-probes -1",
      "fleet amd,intel 16 2 first-fit --full-scan-ops",
      // Machine events whose machine is in the wrong state when replay
      // reaches them.
      "fleet amd,intel 16 2 --rejoin 0@5",
      "fleet amd,intel 16 2 --fail 0@5 --fail 0@6",
      "fleet amd,intel 16 2 --drain 0@5 --drain 0@6",
      "fleet amd,intel 16 2 --fail 0@5 --drain 0@6",
      "fleet amd,intel 16 2 --fail rack:0@5 --rejoin 0@6 --rejoin 0@7",
      // Model files that do not parse.
      "predict " + garbage_model + " 1 2",
      "predict " + empty_model + " 1 2",
      "predict " + tag_only_model + " 1 2",
      // Model files whose shapes disagree.
      "predict " + short_leaf_model + " 1e5 1e5",
      "predict " + short_ids_model + " 1e5 1e5",
      "predict " + wide_tree_model + " 1e5 1e5",
      // Probe measurements that are not finite numbers > 0.
      "predict " + trained_model + " 0 1",
      "predict " + trained_model + " -1 1",
      "predict " + trained_model + " nan 1",
      "predict " + trained_model + " abc 1",
      "predict " + trained_model + " 1e5x 1",
      "predict " + trained_model + " 1 inf",
      "predict " + trained_model + " inf 1",
      "predict " + trained_model + " 1 -1",
  };
  for (const std::string& args : cases) {
    SCOPED_TRACE(args);
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.status, 2);
    // A silent row fails alone; the rows after it are still checked. The
    // one-line check needs a message: err.size() - 1 would wrap to npos.
    EXPECT_FALSE(run.err.empty());
    if (run.err.empty()) {
      continue;
    }
    EXPECT_EQ(run.err.find('\n'), run.err.size() - 1) << run.err;  // one line
    EXPECT_EQ(run.err.find("NP_CHECK"), std::string::npos) << run.err;
    EXPECT_EQ(run.out.find("training a model"), std::string::npos) << run.out;
  }
  EXPECT_FALSE(std::ifstream(model_path).good()) << "a rejected train wrote its file";
  EXPECT_FALSE(std::ifstream(metrics_path).good()) << "a rejected fleet wrote metrics";
  for (const std::string& path : {garbage_model, empty_model, tag_only_model, trained_model,
                                  short_leaf_model, short_ids_model, wide_tree_model}) {
    std::remove(path.c_str());
  }
}

TEST(CliMisuse, ValidInputStillRuns) {
  // The same checks let good input through: a one-placement size is fine for
  // a policy that needs no model.
  for (const std::string args : {"placements amd 16", "placements amd 7",
                                 "schedule amd 7 2 first-fit",
                                 "fleet amd,intel 16 2 first-fit --fleet-probes 0"}) {
    SCOPED_TRACE(args);
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_TRUE(run.err.empty()) << run.err;
  }
}

}  // namespace
