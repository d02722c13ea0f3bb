#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "io/exporter.h"
#include "io/time_series.h"
#include "models/epidemiology.h"
#include "support/temp_path.h"

namespace bdm {
namespace {

Param SmallParam() {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  return param;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) {
    lines += c == '\n';
  }
  return lines;
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : cleanup_) {
      std::remove(f.c_str());
    }
  }
  std::vector<std::string> cleanup_;
};

TEST_F(IoTest, CsvExportContainsEveryAgent) {
  Simulation sim("io", SmallParam());
  for (int i = 0; i < 7; ++i) {
    auto* cell = new Cell({static_cast<real_t>(i), 2, 3}, 10);
    cell->SetCellType(i % 2);
    sim.GetResourceManager()->AddAgent(cell);
  }
  const std::string path = test::TempPath("io.csv");
  cleanup_.push_back(path);
  io::ExportCsv(&sim, path);
  const std::string content = ReadFile(path);
  EXPECT_EQ(CountLines(content), 8);  // header + 7 agents
  EXPECT_NE(content.find("uid,x,y,z,diameter,type,static"), std::string::npos);
  EXPECT_NE(content.find(",10,"), std::string::npos);
}

TEST_F(IoTest, VtkExportIsWellFormed) {
  Simulation sim("io", SmallParam());
  for (int i = 0; i < 5; ++i) {
    sim.GetResourceManager()->AddAgent(
        new Cell({static_cast<real_t>(i) * 10, 0, 0}, 8));
  }
  const std::string path = test::TempPath("io.vtk");
  cleanup_.push_back(path);
  io::ExportVtk(&sim, path);
  const std::string content = ReadFile(path);
  EXPECT_NE(content.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(content.find("DATASET POLYDATA"), std::string::npos);
  EXPECT_NE(content.find("POINTS 5 double"), std::string::npos);
  EXPECT_NE(content.find("SCALARS diameter double 1"), std::string::npos);
  EXPECT_NE(content.find("SCALARS type int 1"), std::string::npos);
}

TEST_F(IoTest, ExportOpWritesAtConfiguredFrequency) {
  Simulation sim("io", SmallParam());
  sim.GetResourceManager()->AddAgent(new Cell({0, 0, 0}, 10));
  const std::string prefix = test::TempPath("snap");
  sim.GetScheduler()->AppendPostOp(
      std::make_unique<io::ExportOp>(prefix, io::Format::kCsv, 2));
  sim.Simulate(5);  // due at iterations 0, 2, 4
  for (int i = 0; i < 3; ++i) {
    const std::string path = prefix + "_" + std::to_string(i) + ".csv";
    cleanup_.push_back(path);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
  }
  EXPECT_FALSE(std::ifstream(prefix + "_3.csv").good());
}

TEST(TimeSeriesTest, CollectsRegisteredObservables) {
  Simulation sim("ts", SmallParam());
  sim.GetResourceManager()->AddAgent(new Cell({0, 0, 0}, 10));
  io::TimeSeries series;
  series.AddCollector("num_agents", [](Simulation* s) {
    return static_cast<real_t>(s->GetResourceManager()->GetNumAgents());
  });
  sim.GetScheduler()->AppendPostOp(
      std::make_unique<io::TimeSeriesOp>(&series, 1));
  sim.Simulate(4);
  ASSERT_EQ(series.NumSamples(), 4u);
  EXPECT_EQ(series.Get("num_agents").back(), 1);
  EXPECT_TRUE(series.Get("unknown").empty());
}

TEST(TimeSeriesTest, EpidemicCurveIsMonotonicWhereExpected) {
  Simulation sim("ts", SmallParam());
  models::epidemiology::Config config;
  config.num_persons = 500;
  config.space = 250;
  models::epidemiology::Build(&sim, config);
  io::TimeSeries series;
  series.AddCollector("susceptible", [](Simulation* s) {
    return static_cast<real_t>(models::epidemiology::CountStates(s)[0]);
  });
  series.AddCollector("recovered", [](Simulation* s) {
    return static_cast<real_t>(models::epidemiology::CountStates(s)[2]);
  });
  sim.GetScheduler()->AppendPostOp(
      std::make_unique<io::TimeSeriesOp>(&series, 1));
  sim.Simulate(30);
  const auto& susceptible = series.Get("susceptible");
  const auto& recovered = series.Get("recovered");
  for (size_t i = 1; i < susceptible.size(); ++i) {
    EXPECT_LE(susceptible[i], susceptible[i - 1]);  // S never increases
    EXPECT_GE(recovered[i], recovered[i - 1]);      // R never decreases
  }
}

TEST(TimeSeriesTest, CsvRoundTrip) {
  io::TimeSeries series;
  int tick = 0;
  series.AddCollector("tick", [&](Simulation*) { return real_t(tick++); });
  series.Sample(nullptr);
  series.Sample(nullptr);
  const std::string path = test::TempPath("ts.csv");
  series.WriteCsv(path);
  std::ifstream in(path);
  std::string header, row0, row1;
  std::getline(in, header);
  std::getline(in, row0);
  std::getline(in, row1);
  EXPECT_EQ(header, "sample,tick");
  EXPECT_EQ(row0, "0,0");
  EXPECT_EQ(row1, "1,1");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bdm
