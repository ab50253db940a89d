// Misuse of the numaplace_cli binary: every unusable input exits with
// status 2 and a one-line message on stderr, before any model is trained
// and without reaching an internal NP_CHECK.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

TEST(CliMisuse, RejectsUnusableInputBeforeTraining) {
  const std::string model_path = ScratchPath("model.txt");
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
  };
  for (const std::string& args : cases) {
    SCOPED_TRACE(args);
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.status, 2);
    ASSERT_FALSE(run.err.empty());
    EXPECT_EQ(run.err.find('\n'), run.err.size() - 1) << run.err;  // one line
    EXPECT_EQ(run.err.find("NP_CHECK"), std::string::npos) << run.err;
    EXPECT_EQ(run.out.find("training a model"), std::string::npos) << run.out;
  }
  EXPECT_FALSE(std::ifstream(model_path).good()) << "a rejected train wrote its file";
}

TEST(CliMisuse, ValidInputStillRuns) {
  // The same checks let good input through: a one-placement size is fine for
  // a policy that needs no model.
  for (const std::string args : {"placements amd 16", "placements amd 7",
                                 "schedule amd 7 2 first-fit"}) {
    SCOPED_TRACE(args);
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_TRUE(run.err.empty()) << run.err;
  }
}

}  // namespace
