#include "util/logging.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace rdmajoin {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::SetSink([this](LogLevel level, const std::string& msg) {
      captured_.emplace_back(level, msg);
    });
  }
  void TearDown() override {
    Logger::SetSink(nullptr);
    Logger::SetLevel(LogLevel::kOff);
  }
  std::vector<std::pair<LogLevel, std::string>> captured_;
};

TEST_F(LoggingTest, OffByDefaultDiscardsEverything) {
  Logger::SetLevel(LogLevel::kOff);
  RDMAJOIN_LOG(kError) << "dropped";
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LoggingTest, LevelFiltersMessages) {
  Logger::SetLevel(LogLevel::kWarning);
  RDMAJOIN_LOG(kDebug) << "no";
  RDMAJOIN_LOG(kInfo) << "no";
  RDMAJOIN_LOG(kWarning) << "yes1";
  RDMAJOIN_LOG(kError) << "yes2";
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[0].second, "yes1");
  EXPECT_EQ(captured_[1].first, LogLevel::kError);
}

TEST_F(LoggingTest, StreamFormatting) {
  Logger::SetLevel(LogLevel::kDebug);
  RDMAJOIN_LOG(kInfo) << "x=" << 42 << " y=" << 2.5;
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].second, "x=42 y=2.5");
}

TEST_F(LoggingTest, DisabledStatementDoesNotEvaluateOperands) {
  Logger::SetLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return "costly";
  };
  RDMAJOIN_LOG(kDebug) << expensive();
  EXPECT_EQ(evaluations, 0);
  RDMAJOIN_LOG(kError) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LoggingTest, TwoThreadsLogWholeLinesInTheirOwnOrder) {
  // The replay's network pass logs from a helper thread while the caller may
  // log too. Every line must reach the sink whole, each thread's lines in
  // the order it wrote them, while a third thread keeps setting the level.
  Logger::SetLevel(LogLevel::kInfo);
  constexpr int kLines = 500;
  auto writer = [](char tag) {
    for (int i = 0; i < kLines; ++i) RDMAJOIN_LOG(kInfo) << tag << i;
  };
  std::thread setter([] {
    for (int i = 0; i < kLines; ++i) {
      Logger::SetLevel(i % 2 == 0 ? LogLevel::kDebug : LogLevel::kInfo);
    }
  });
  std::thread a(writer, 'a');
  std::thread b(writer, 'b');
  setter.join();
  a.join();
  b.join();
  ASSERT_EQ(captured_.size(), 2u * kLines);
  int next_a = 0;
  int next_b = 0;
  for (const auto& [level, message] : captured_) {
    EXPECT_EQ(level, LogLevel::kInfo);
    ASSERT_FALSE(message.empty());
    int& next = message[0] == 'a' ? next_a : next_b;
    EXPECT_EQ(message, std::string(1, message[0]) + std::to_string(next++));
  }
  EXPECT_EQ(next_a, kLines);
  EXPECT_EQ(next_b, kLines);
}

TEST_F(LoggingTest, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarning), "WARNING");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace rdmajoin
