#include "xp/journal.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace kelpie {
namespace {

PredictionRecord MakeRecord(int i) {
  PredictionRecord r;
  r.prediction = Triple(i, i + 1, i + 2);
  r.facts = {Triple(i, 0, 7), Triple(i, 1, 8)};
  r.conversion_set = {10 + i, 20 + i};
  r.relevance = 0.25 * i;
  r.accepted = (i % 2 == 0);
  r.post_trainings = static_cast<uint64_t>(3 * i);
  r.visited_candidates = static_cast<uint64_t>(5 * i);
  r.completeness = static_cast<uint64_t>(i % 4);
  r.skipped_candidates = static_cast<uint64_t>(2 * i);
  r.divergent_candidates = static_cast<uint64_t>(i);
  return r;
}

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteAll(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kelpie_journal_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "run.jnl").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(JournalTest, RoundTripRecords) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 0xABCD, false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(journal->Append(MakeRecord(i)).ok());
    }
  }
  Result<RunJournal> resumed = RunJournal::Open(path_, 0xABCD, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->recovered().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed->recovered()[i], MakeRecord(i));
  }
}

TEST_F(JournalTest, ResumeOfMissingFileStartsEmpty) {
  Result<RunJournal> journal = RunJournal::Open(path_, 1, true);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(journal->recovered().empty());
  ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
}

TEST_F(JournalTest, FreshOpenDiscardsExistingJournal) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 1, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
  }
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 1, false);
    ASSERT_TRUE(journal.ok());
  }
  Result<RunJournal> resumed = RunJournal::Open(path_, 1, true);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->recovered().empty());
}

TEST_F(JournalTest, RunIdMismatchRefusesResume) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 1, false);
    ASSERT_TRUE(journal.ok());
  }
  Result<RunJournal> resumed = RunJournal::Open(path_, 2, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("different run configuration"),
            std::string::npos);
}

TEST_F(JournalTest, GarbageFileRejected) {
  WriteAll(path_, "certainly not a journal");
  Result<RunJournal> resumed = RunJournal::Open(path_, 1, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
}

TEST_F(JournalTest, CorruptHeaderRejected) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 3, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
  }
  std::string bytes = ReadAll(path_);
  bytes[12] ^= 0x01;  // a run-id byte: the header CRC no longer verifies
  WriteAll(path_, bytes);
  Result<RunJournal> resumed = RunJournal::Open(path_, 3, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
}

TEST_F(JournalTest, TornTailIsTruncatedAndResumable) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 9, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
    ASSERT_TRUE(journal->Append(MakeRecord(1)).ok());
  }
  // Simulate a crash mid-append: chop the last record's final bytes.
  std::string bytes = ReadAll(path_);
  const size_t intact = bytes.size();
  WriteAll(path_, bytes.substr(0, bytes.size() - 5));

  Result<RunJournal> resumed = RunJournal::Open(path_, 9, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // Only the first record survives; the torn tail is gone from the file.
  ASSERT_EQ(resumed->recovered().size(), 1u);
  EXPECT_EQ(resumed->recovered()[0], MakeRecord(0));
  EXPECT_LT(std::filesystem::file_size(path_), intact);

  // Appending after recovery yields a fully valid journal again.
  ASSERT_TRUE(resumed->Append(MakeRecord(1)).ok());
  Result<RunJournal> again = RunJournal::Open(path_, 9, true);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->recovered().size(), 2u);
  EXPECT_EQ(again->recovered()[1], MakeRecord(1));
}

TEST_F(JournalTest, CorruptRecordByteStopsReplayThere) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 9, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
    ASSERT_TRUE(journal->Append(MakeRecord(1)).ok());
  }
  std::string bytes = ReadAll(path_);
  // Flip a payload byte of the *last* record (CRC trailer is its final 4
  // bytes; step back past it into the payload).
  bytes[bytes.size() - 10] ^= 0x40;
  WriteAll(path_, bytes);

  Result<RunJournal> resumed = RunJournal::Open(path_, 9, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->recovered().size(), 1u);
  EXPECT_EQ(resumed->recovered()[0], MakeRecord(0));
}

TEST_F(JournalTest, EmptyRecordFieldsRoundTrip) {
  PredictionRecord r;
  r.prediction = Triple(1, 2, 3);
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 4, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(r).ok());
  }
  Result<RunJournal> resumed = RunJournal::Open(path_, 4, true);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->recovered().size(), 1u);
  EXPECT_EQ(resumed->recovered()[0], r);
}

// ------------------------------------------------------------ summaries ----

RunSummary MakeSummary() {
  RunSummary s;
  s.predictions = 3;
  s.accepted = 2;
  s.truncated = 1;
  s.post_trainings = 42;
  s.visited_candidates = 17;
  s.skipped_candidates = 5;
  s.divergent_candidates = 1;
  s.mean_relevance = 0.75;
  return s;
}

TEST_F(JournalTest, SummaryRoundTripsAndIsConsumedOnResume) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 7, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
    ASSERT_TRUE(journal->Append(MakeRecord(1)).ok());
    ASSERT_TRUE(journal->AppendSummary(MakeSummary()).ok());
  }
  const size_t with_summary = std::filesystem::file_size(path_);

  Result<RunJournal> resumed = RunJournal::Open(path_, 7, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->recovered().size(), 2u);
  EXPECT_EQ(resumed->recovered()[0], MakeRecord(0));
  EXPECT_EQ(resumed->recovered()[1], MakeRecord(1));
  ASSERT_TRUE(resumed->recovered_summary().has_value());
  EXPECT_EQ(*resumed->recovered_summary(), MakeSummary());
  // The stale summary is truncated away: records now append after the last
  // data record, and the run writes a fresh summary when it finishes.
  EXPECT_LT(std::filesystem::file_size(path_), with_summary);

  ASSERT_TRUE(resumed->Append(MakeRecord(2)).ok());
  RunSummary updated = MakeSummary();
  updated.predictions = 4;
  ASSERT_TRUE(resumed->AppendSummary(updated).ok());

  Result<RunJournal> again = RunJournal::Open(path_, 7, true);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->recovered().size(), 3u);
  EXPECT_EQ(again->recovered()[2], MakeRecord(2));
  ASSERT_TRUE(again->recovered_summary().has_value());
  EXPECT_EQ(*again->recovered_summary(), updated);
}

TEST_F(JournalTest, ResumeWithoutSummaryRecoversNone) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 8, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
  }
  Result<RunJournal> resumed = RunJournal::Open(path_, 8, true);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->recovered().size(), 1u);
  EXPECT_FALSE(resumed->recovered_summary().has_value());
}

TEST_F(JournalTest, SummaryWithNonFiniteMeanRoundTrips) {
  // kDivergedRelevance runs can legitimately produce a non-finite mean if a
  // caller chooses to store one; the frame is raw double bits either way.
  RunSummary s = MakeSummary();
  s.mean_relevance = -std::numeric_limits<double>::infinity();
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 9, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendSummary(s).ok());
  }
  Result<RunJournal> resumed = RunJournal::Open(path_, 9, true);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->recovered().empty());
  ASSERT_TRUE(resumed->recovered_summary().has_value());
  EXPECT_EQ(*resumed->recovered_summary(), s);
}

TEST_F(JournalTest, TornSummaryFrameIsTruncatedLikeAnyTail) {
  {
    Result<RunJournal> journal = RunJournal::Open(path_, 10, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(MakeRecord(0)).ok());
    ASSERT_TRUE(journal->AppendSummary(MakeSummary()).ok());
  }
  std::string bytes = ReadAll(path_);
  WriteAll(path_, bytes.substr(0, bytes.size() - 3));

  Result<RunJournal> resumed = RunJournal::Open(path_, 10, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->recovered().size(), 1u);
  EXPECT_FALSE(resumed->recovered_summary().has_value());
}

}  // namespace
}  // namespace kelpie
