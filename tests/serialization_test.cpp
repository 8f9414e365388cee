#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>

#include "core/function_library.h"
#include "core/serialization.h"
#include "core/transform.h"
#include "numerics/rng.h"

namespace nnlut {
namespace {

PiecewiseLinear sample_lut() {
  return PiecewiseLinear({-1.5f, 0.25f, 2.0f}, {0.1f, -0.5f, 1.25f, 3.0f},
                         {0.0f, 1e-7f, -2.5f, 42.0f});
}

TEST(Serialization, LutRoundTripIsBitExact) {
  const PiecewiseLinear lut = sample_lut();
  std::stringstream ss;
  write_lut(ss, lut);
  const PiecewiseLinear back = read_lut(ss);

  ASSERT_EQ(back.entries(), lut.entries());
  for (std::size_t i = 0; i < lut.breakpoints().size(); ++i)
    EXPECT_EQ(back.breakpoints()[i], lut.breakpoints()[i]);
  for (std::size_t i = 0; i < lut.entries(); ++i) {
    EXPECT_EQ(back.slopes()[i], lut.slopes()[i]);
    EXPECT_EQ(back.intercepts()[i], lut.intercepts()[i]);
  }
}

TEST(Serialization, TrainedLutRoundTripEvaluatesIdentically) {
  const FittedLut fit = fit_lut(TargetFn::kGelu, 16, FitPreset::kFast, 7);
  std::stringstream ss;
  write_lut(ss, fit.lut);
  const PiecewiseLinear back = read_lut(ss);
  for (float x = -6.0f; x <= 6.0f; x += 0.01f)
    EXPECT_EQ(back(x), fit.lut(x)) << x;
}

TEST(Serialization, NetRoundTripIsBitExact) {
  Rng rng(3);
  ApproxNet net;
  for (int i = 0; i < 15; ++i) {
    net.n.push_back(rng.uniform(-2, 2));
    net.b.push_back(rng.uniform(-3, 3));
    net.m.push_back(rng.uniform(-1, 1));
  }
  net.c = 0.123456789f;

  std::stringstream ss;
  write_net(ss, net);
  const ApproxNet back = read_net(ss);
  ASSERT_EQ(back.hidden_size(), net.hidden_size());
  for (std::size_t i = 0; i < net.hidden_size(); ++i) {
    EXPECT_EQ(back.n[i], net.n[i]);
    EXPECT_EQ(back.b[i], net.b[i]);
    EXPECT_EQ(back.m[i], net.m[i]);
  }
  EXPECT_EQ(back.c, net.c);

  // The reloaded net transforms to the same LUT.
  const PiecewiseLinear a = nn_to_lut(net);
  const PiecewiseLinear b = nn_to_lut(back);
  for (float x = -5; x <= 5; x += 0.1f) EXPECT_EQ(a(x), b(x));
}

TEST(Serialization, RejectsBadHeader) {
  std::stringstream ss("garbage v9\n");
  EXPECT_THROW(read_lut(ss), std::runtime_error);
  std::stringstream ss2("nnlut-net v1\nhidden oops\n");
  EXPECT_THROW(read_net(ss2), std::runtime_error);
}

TEST(Serialization, RejectsWrongCounts) {
  std::stringstream ss;
  ss << "nnlut-lut v1\nentries 3\nbreakpoints 0x1p+0\n";  // needs 2
  EXPECT_THROW(read_lut(ss), std::runtime_error);
}

// Every value token must parse whole to a finite float; the error names
// the offending key.
TEST(Serialization, RejectsMalformedAndNonFiniteValues) {
  const char* const bad_lines[] = {
      "breakpoints abc 0x1p+0\nslopes 1 2 3\nintercepts 0 0 0\n",
      "breakpoints 0 1\nslopes 1.5junk 2 3\nintercepts 0 0 0\n",
      "breakpoints 0 1\nslopes 1 nan 3\nintercepts 0 0 0\n",
      "breakpoints 0 1\nslopes 1 2 3\nintercepts 0 inf 0\n",
      "breakpoints 0 1\nslopes 1 2 3\nintercepts 0 0 -inf\n",
      "breakpoints 0 1\nslopes 1 2 3\nintercepts 0 0 1e39\n",
  };
  const char* const keys[] = {"breakpoints", "slopes", "slopes",
                              "intercepts", "intercepts", "intercepts"};
  for (std::size_t i = 0; i < std::size(bad_lines); ++i) {
    std::stringstream ss(std::string("nnlut-lut v1\nentries 3\n") +
                         bad_lines[i]);
    try {
      (void)read_lut(ss);
      ADD_FAILURE() << "accepted: " << bad_lines[i];
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(keys[i]), std::string::npos)
          << e.what();
    }
  }
  std::stringstream net("nnlut-net v1\nhidden 1\nn 1\nb 2\nm 3\nc nan\n");
  EXPECT_THROW(read_net(net), std::runtime_error);
}

// A count line is exactly "<key> <decimal>" with a count that fits
// std::size_t; any other line is refused with an error naming the key.
TEST(Serialization, RejectsMalformedCountLines) {
  const char* const bad_counts[] = {
      "entries 3junk", "entries 3 4", "entries +3",  "entries -3",
      "entries  3",    "entries 3 ",  "entries 0x3", "entries 3.0",
      "entries",       "entries ",    " entries 3",  "entry 3",
      "entries 99999999999999999999999",  // overflows std::size_t
  };
  for (const char* bad : bad_counts) {
    std::stringstream ss(std::string("nnlut-lut v1\n") + bad +
                         "\nbreakpoints 0 1\nslopes 1 2 3\nintercepts 0 0 0\n");
    try {
      (void)read_lut(ss);
      ADD_FAILURE() << "accepted: '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("entries"), std::string::npos)
          << e.what();
    }
  }
  std::stringstream net("nnlut-net v1\nhidden 1junk\nn 1\nb 2\nm 3\nc 4\n");
  EXPECT_THROW(read_net(net), std::runtime_error);

  std::stringstream ok(
      "nnlut-lut v1\nentries 3\nbreakpoints 0 1\nslopes 1 2 3\n"
      "intercepts 0 0 0\n");
  EXPECT_EQ(read_lut(ok).entries(), 3u);
}

TEST(Serialization, RejectsTruncatedInput) {
  const PiecewiseLinear lut = sample_lut();
  std::stringstream ss;
  write_lut(ss, lut);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(read_lut(half), std::runtime_error);
}

TEST(Serialization, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "nnlut_test.lut";
  const PiecewiseLinear lut = sample_lut();
  save_lut(path.string(), lut);
  const PiecewiseLinear back = load_lut(path.string());
  EXPECT_EQ(back.entries(), lut.entries());
  EXPECT_EQ(back(0.5f), lut(0.5f));
  std::filesystem::remove(path);
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(load_lut("/nonexistent/dir/file.lut"), std::runtime_error);
}

}  // namespace
}  // namespace nnlut
