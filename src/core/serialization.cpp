#include "core/serialization.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace nnlut {

namespace {

// Hex-float formatting round-trips binary32 exactly.
void write_floats(std::ostream& os, const char* key,
                  std::span<const float> vals) {
  os << key;
  char buf[48];
  for (float v : vals) {
    std::snprintf(buf, sizeof buf, " %a", static_cast<double>(v));
    os << buf;
  }
  os << '\n';
}

std::vector<float> read_floats(std::istream& is, const char* key,
                               std::size_t expect) {
  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error(std::string("serialization: missing line for ") + key);
  std::istringstream ls(line);
  std::string got_key;
  ls >> got_key;
  if (got_key != key)
    throw std::runtime_error("serialization: expected key '" + std::string(key) +
                             "', got '" + got_key + "'");
  std::vector<float> out;
  std::string tok;
  while (ls >> tok) {
    // Strict: the whole token must parse, to a finite value (strtof alone
    // would read "abc" as 0, "1.5junk" as 1.5 and accept "nan"/"inf").
    char* end = nullptr;
    const float v = std::strtof(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v))
      throw std::runtime_error("serialization: bad value '" + tok +
                               "' for key '" + key + "'");
    out.push_back(v);
  }
  if (out.size() != expect)
    throw std::runtime_error("serialization: wrong count for key '" +
                             std::string(key) + "'");
  return out;
}

std::size_t read_count(std::istream& is, const char* key) {
  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error("serialization: truncated input");
  std::istringstream ls(line);
  std::string got_key;
  long long n = -1;
  ls >> got_key >> n;
  if (got_key != key || n < 0)
    throw std::runtime_error("serialization: bad count line for '" +
                             std::string(key) + "'");
  return static_cast<std::size_t>(n);
}

void expect_header(std::istream& is, const std::string& magic) {
  std::string line;
  if (!std::getline(is, line) || line != magic)
    throw std::runtime_error("serialization: bad header, expected '" + magic +
                             "'");
}

}  // namespace

void write_lut(std::ostream& os, const PiecewiseLinear& lut) {
  os << "nnlut-lut v1\n";
  os << "entries " << lut.entries() << '\n';
  write_floats(os, "breakpoints", lut.breakpoints());
  write_floats(os, "slopes", lut.slopes());
  write_floats(os, "intercepts", lut.intercepts());
}

PiecewiseLinear read_lut(std::istream& is) {
  expect_header(is, "nnlut-lut v1");
  const std::size_t entries = read_count(is, "entries");
  if (entries == 0) throw std::runtime_error("serialization: zero entries");
  auto bps = read_floats(is, "breakpoints", entries - 1);
  auto slopes = read_floats(is, "slopes", entries);
  auto intercepts = read_floats(is, "intercepts", entries);
  return PiecewiseLinear(std::move(bps), std::move(slopes),
                         std::move(intercepts));
}

void write_net(std::ostream& os, const ApproxNet& net) {
  os << "nnlut-net v1\n";
  os << "hidden " << net.hidden_size() << '\n';
  write_floats(os, "n", net.n);
  write_floats(os, "b", net.b);
  write_floats(os, "m", net.m);
  const float c[] = {net.c};
  write_floats(os, "c", c);
}

ApproxNet read_net(std::istream& is) {
  expect_header(is, "nnlut-net v1");
  const std::size_t hidden = read_count(is, "hidden");
  ApproxNet net;
  net.n = read_floats(is, "n", hidden);
  net.b = read_floats(is, "b", hidden);
  net.m = read_floats(is, "m", hidden);
  net.c = read_floats(is, "c", 1)[0];
  return net;
}

namespace {
template <typename WriteFn>
void save_to(const std::string& path, WriteFn&& fn) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  fn(os);
  if (!os) throw std::runtime_error("write failed: " + path);
}
}  // namespace

void save_lut(const std::string& path, const PiecewiseLinear& lut) {
  save_to(path, [&](std::ostream& os) { write_lut(os, lut); });
}

PiecewiseLinear load_lut(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_lut(is);
}

void save_net(const std::string& path, const ApproxNet& net) {
  save_to(path, [&](std::ostream& os) { write_net(os, net); });
}

ApproxNet load_net(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_net(is);
}

}  // namespace nnlut
