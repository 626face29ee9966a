// Unit + property tests for the common substrate: bit utilities, RNG,
// statistics, bounded FIFO, clock domains, leveled logging, and strict
// command-line parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/bits.h"
#include "common/cli.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/fifo.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/trace.h"

namespace meek {
namespace {

TEST(bits, mask64_boundaries) {
    EXPECT_EQ(mask64(0), 0u);
    EXPECT_EQ(mask64(1), 1u);
    EXPECT_EQ(mask64(8), 0xFFu);
    EXPECT_EQ(mask64(63), 0x7FFFFFFFFFFFFFFFull);
    EXPECT_EQ(mask64(64), ~u64{0});
    EXPECT_EQ(mask64(70), ~u64{0});
}

class bits_roundtrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(bits_roundtrip, insert_then_extract_is_identity) {
    const unsigned lo = GetParam();
    const unsigned len = 64 - lo >= 13 ? 13 : 64 - lo;
    const u64 base = 0xDEADBEEFCAFEBABEull;
    const u64 field = 0x1ABCull & mask64(len);
    const u64 v = insert_bits(base, lo, len, field);
    EXPECT_EQ(bits(v, lo, len), field);
    // Bits outside the field are untouched.
    const u64 outside_mask = ~(mask64(len) << lo);
    EXPECT_EQ(v & outside_mask, base & outside_mask);
}

INSTANTIATE_TEST_SUITE_P(positions, bits_roundtrip,
                         ::testing::Values(0u, 1u, 7u, 8u, 13u, 31u, 32u, 51u, 60u));

TEST(bits, sign_extend) {
    EXPECT_EQ(sign_extend(0xFF, 8), -1);
    EXPECT_EQ(sign_extend(0x7F, 8), 127);
    EXPECT_EQ(sign_extend(0x80, 8), -128);
    EXPECT_EQ(sign_extend(0xFFFF, 16), -1);
    EXPECT_EQ(sign_extend(0x8000'0000ull, 32), std::numeric_limits<i32>::min());
    EXPECT_EQ(sign_extend(5, 64), 5);
}

TEST(bits, parity64) {
    EXPECT_EQ(parity64(0), 0);
    EXPECT_EQ(parity64(1), 1);
    EXPECT_EQ(parity64(3), 0);
    EXPECT_EQ(parity64(~u64{0}), 0);
    EXPECT_EQ(parity64(u64{1} << 63), 1);
    // Property: flipping any single bit flips the parity.
    rng r(42);
    for (int i = 0; i < 64; ++i) {
        const u64 v = r.next();
        EXPECT_NE(parity64(v), parity64(v ^ (u64{1} << i)));
    }
}

TEST(bits, pow2_helpers) {
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(48));
    EXPECT_EQ(log2_floor(1), 0u);
    EXPECT_EQ(log2_floor(4096), 12u);
    EXPECT_EQ(log2_floor(4097), 12u);
    EXPECT_EQ(align_up(13, 8), 16u);
    EXPECT_EQ(align_up(16, 8), 16u);
}

TEST(rng, deterministic_and_reseedable) {
    rng a(7);
    rng b(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
    rng c(8);
    a.reseed(8);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), c.next());
}

TEST(rng, below_respects_bound) {
    rng r(123);
    for (const u64 bound : {u64{1}, u64{2}, u64{7}, u64{1000}, u64{1} << 40}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
    }
    EXPECT_EQ(r.below(0), 0u);
}

TEST(rng, uniform_mean_is_near_half) {
    rng r(55);
    double sum = 0;
    constexpr int n = 20'000;
    for (int i = 0; i < n; ++i) sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(running_stat, basic_moments) {
    running_stat s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.01);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(running_stat, merge_matches_single_stream) {
    rng r(9);
    running_stat all;
    running_stat lhs;
    running_stat rhs;
    for (int i = 0; i < 500; ++i) {
        const double v = r.uniform() * 100;
        all.add(v);
        (i % 2 ? lhs : rhs).add(v);
    }
    lhs.merge(rhs);
    EXPECT_EQ(lhs.count(), all.count());
    EXPECT_NEAR(lhs.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(lhs.variance(), all.variance(), 1e-6);
    EXPECT_EQ(lhs.min(), all.min());
    EXPECT_EQ(lhs.max(), all.max());
}

TEST(histogram, binning_and_quantiles) {
    histogram h(0, 100, 10);
    for (int i = 0; i < 100; ++i) h.add(i + 0.5);
    EXPECT_EQ(h.total(), 100u);
    for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bin_count(b), 10u);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.1);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.1);
    h.add(-5);
    h.add(1000);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(histogram, density_sums_to_one_for_in_range) {
    histogram h(0, 10, 5);
    for (int i = 0; i < 50; ++i) h.add(static_cast<double>(i % 10));
    double sum = 0;
    for (const double d : h.density()) sum += d;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(geomean_fn, matches_hand_computation) {
    const std::vector<double> v{1.0, 2.0, 4.0};
    EXPECT_NEAR(geomean(v), 2.0, 1e-12);
    const std::vector<double> with_zero{0.0, 2.0, 8.0};
    EXPECT_NEAR(geomean(with_zero), 4.0, 1e-12);  // non-positive skipped
    EXPECT_EQ(geomean(std::vector<double>{}), 0.0);
}

TEST(bounded_fifo, backpressure_and_order) {
    bounded_fifo<int> f(3);
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_TRUE(f.push(3));
    EXPECT_TRUE(f.full());
    EXPECT_FALSE(f.push(4));  // rejected, not dropped
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(*f.pop(), 1);
    EXPECT_EQ(f.free_slots(), 1u);
    EXPECT_TRUE(f.push(4));
    EXPECT_EQ(*f.pop(), 2);
    EXPECT_EQ(*f.pop(), 3);
    EXPECT_EQ(*f.pop(), 4);
    EXPECT_FALSE(f.pop().has_value());
}

TEST(bounded_fifo, wraparound_preserves_fifo_order) {
    bounded_fifo<int> f(4);  // pow2 capacity: head chases tail around the ring
    int next = 0;
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(f.push(next++));
        EXPECT_TRUE(f.push(next++));
        EXPECT_EQ(*f.pop(), next - 2);
        EXPECT_EQ(*f.pop(), next - 1);
    }
    EXPECT_TRUE(f.empty());

    bounded_fifo<int> g(3);  // non-pow2 capacity: storage rounds up, cap holds
    EXPECT_TRUE(g.push(0));
    EXPECT_EQ(*g.pop(), 0);
    EXPECT_TRUE(g.push(1));
    EXPECT_TRUE(g.push(2));
    EXPECT_TRUE(g.push(3));
    EXPECT_TRUE(g.full());
    EXPECT_FALSE(g.push(4));
    EXPECT_EQ(g.free_slots(), 0u);
    EXPECT_EQ(*g.pop(), 1);
    EXPECT_EQ(*g.pop(), 2);
    EXPECT_EQ(*g.pop(), 3);
    EXPECT_FALSE(g.pop().has_value());
}

TEST(bounded_fifo, iteration_and_at_under_wrap) {
    bounded_fifo<int> f(4);
    for (int i = 0; i < 3; ++i) f.push(i);
    f.pop();
    f.pop();
    f.push(3);
    f.push(4);
    f.push(5);  // physically wrapped: slots [2,3,0,1]
    const std::vector<int> want{2, 3, 4, 5};
    std::vector<int> got(f.begin(), f.end());
    EXPECT_EQ(got, want);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(f.at(i), want[i]);
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.free_slots(), 4u);
    EXPECT_TRUE(f.begin() == f.end());
}

TEST(bounded_fifo, move_only_payloads) {
    bounded_fifo<std::unique_ptr<int>> f(2);
    EXPECT_TRUE(f.push(std::make_unique<int>(7)));
    EXPECT_TRUE(f.push(std::make_unique<int>(8)));
    EXPECT_FALSE(f.push(std::make_unique<int>(9)));
    EXPECT_EQ(*f.front().get(), 7);
    auto p = f.pop();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(**p, 7);
    bounded_fifo<std::unique_ptr<int>> g(std::move(f));
    EXPECT_EQ(g.size(), 1u);
    EXPECT_EQ(**g.pop(), 8);
}

TEST(bounded_fifo, zero_capacity_rejects_everything) {
    bounded_fifo<int> f(0);
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.free_slots(), 0u);
    EXPECT_FALSE(f.push(1));
    EXPECT_FALSE(f.pop().has_value());
}

// Differential test: the ring must be observationally identical to the old
// std::deque-backed implementation under a random push/pop/clear workload.
TEST(bounded_fifo, randomized_differential_vs_deque_reference) {
    struct deque_ref {
        std::size_t cap;
        std::deque<int> items;
        bool push(int v) {
            if (items.size() >= cap) return false;
            items.push_back(v);
            return true;
        }
        std::optional<int> pop() {
            if (items.empty()) return std::nullopt;
            int v = items.front();
            items.pop_front();
            return v;
        }
    };
    rng prng(0xF1F0'F1F0ull);
    for (std::size_t cap : {1u, 2u, 5u, 16u, 33u}) {
        bounded_fifo<int> ring(cap);
        deque_ref ref{cap, {}};
        for (int step = 0; step < 5000; ++step) {
            const u64 op = prng.next() % 100;
            if (op < 55) {
                const int v = static_cast<int>(prng.next() & 0xFFFF);
                EXPECT_EQ(ring.push(v), ref.push(v));
            } else if (op < 95) {
                EXPECT_EQ(ring.pop(), ref.pop());
            } else {
                ring.clear();
                ref.items.clear();
            }
            ASSERT_EQ(ring.size(), ref.items.size());
            ASSERT_EQ(ring.empty(), ref.items.empty());
            ASSERT_EQ(ring.full(), ref.items.size() >= cap);
            ASSERT_EQ(ring.free_slots(), cap - ref.items.size());
            ASSERT_TRUE(std::equal(ring.begin(), ring.end(), ref.items.begin(),
                                   ref.items.end()));
            if (!ref.items.empty()) ASSERT_EQ(ring.front(), ref.items.front());
        }
    }
}

TEST(clock_domain, period_and_conversions) {
    const clock_domain big(3200);
    EXPECT_EQ(big.period_fs(), 312'500u);
    EXPECT_NEAR(big.cycles_to_ns(3200), 1000.0, 1e-9);
    EXPECT_NEAR(big.cycles_to_us(3'200'000), 1000.0, 1e-6);
    EXPECT_EQ(big.ns_to_cycles(1.0), 3u);  // 3.2 cycles truncates to 3

    const clock_domain low(1600);
    EXPECT_EQ(low.period_fs(), 625'000u);
    EXPECT_NEAR(low.cycles_to_ns(1600), 1000.0, 1e-9);
}

TEST(config, scaled_preserves_floors_and_monotonicity) {
    const big_core_config base;
    const big_core_config tiny = base.scaled(0.05);
    EXPECT_GE(tiny.fetch_width, 1u);
    EXPECT_GE(tiny.rob_entries, 4u);
    EXPECT_GE(tiny.phys_int_regs, tiny.rob_entries / 2 + k_num_arch_regs);

    const big_core_config half = base.scaled(0.5);
    EXPECT_LT(half.rob_entries, base.rob_entries);
    EXPECT_LT(half.l2.size_bytes, base.l2.size_bytes);
    EXPECT_EQ(half.l1d.line_bytes, base.l1d.line_bytes);

    const big_core_config same = base.scaled(1.0);
    EXPECT_EQ(same.rob_entries, base.rob_entries);
    EXPECT_EQ(same.iq_entries, base.iq_entries);
}

TEST(config, little_core_tuning_knobs) {
    little_core_config def;
    def.tuning = little_core_tuning::default_rocket;
    EXPECT_EQ(def.div_unroll(), 1u);
    EXPECT_EQ(def.div_latency(), 66u);
    EXPECT_EQ(def.fpu_latency(), 4u);
    EXPECT_EQ(def.fpu_interval(), 2u);
    EXPECT_EQ(def.achievable_freq_mhz(), 1600u);

    little_core_config opt;
    opt.tuning = little_core_tuning::optimized;
    EXPECT_EQ(opt.div_unroll(), 8u);
    EXPECT_EQ(opt.div_latency(), 10u);
    EXPECT_EQ(opt.fpu_latency(), 3u);
    EXPECT_EQ(opt.fpu_interval(), 1u);
    EXPECT_EQ(opt.achievable_freq_mhz(), 2000u);

    EXPECT_EQ(opt.lsl_entries(), 256u);  // 4 KB / 16 B
}

TEST(log, format_pins_tag_message_and_newline) {
    EXPECT_EQ(format_log_line(log_level::error, "boom"), "[error] boom\n");
    EXPECT_EQ(format_log_line(log_level::warn, "w"), "[warn ] w\n");
    EXPECT_EQ(format_log_line(log_level::info, "i"), "[info ] i\n");
    EXPECT_EQ(format_log_line(log_level::trace, "t"), "[trace] t\n");
    // Level none is "no logging", never a line.
    EXPECT_EQ(format_log_line(log_level::none, "x"), "");
}

TEST(log, truncation_note_is_explicit) {
    EXPECT_EQ(format_log_line(log_level::info, "msg", 42),
              "[info ] msg [truncated 42 bytes]\n");
    // No note when nothing was cut.
    EXPECT_EQ(format_log_line(log_level::info, "msg", 0), "[info ] msg\n");
}

TEST(log, formatted_messages_truncate_at_the_documented_limit) {
    // A message `k_log_message_limit` bytes long fits exactly; one byte more
    // is cut with the note. Captured via stderr because log_formatted's
    // vsnprintf pass is the thing under test.
    const std::string fits(k_log_message_limit, 'a');
    const std::string over(k_log_message_limit + 7, 'b');
    const log_level saved = global_log_level();
    global_log_level() = log_level::info;
    testing::internal::CaptureStderr();
    MEEK_LOG(info, "%s", fits.c_str());
    MEEK_LOG(info, "%s", over.c_str());
    const std::string captured = testing::internal::GetCapturedStderr();
    global_log_level() = saved;

    const std::string expected =
        format_log_line(log_level::info, fits) +
        format_log_line(log_level::info,
                        std::string(k_log_message_limit, 'b'), 7);
    EXPECT_EQ(captured, expected);
}

TEST(log, concurrent_messages_never_interleave) {
    // 8 threads × 50 lines of distinct content: every captured line must be
    // exactly one of the emitted lines — a sheared line would parse as a
    // fragment matching none of them.
    constexpr int k_threads = 8;
    constexpr int k_lines = 50;
    const log_level saved = global_log_level();
    global_log_level() = log_level::info;
    testing::internal::CaptureStderr();
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < k_threads; ++t) {
            threads.emplace_back([t] {
                for (int i = 0; i < k_lines; ++i) {
                    log_message(log_level::info,
                                "thread " + std::to_string(t) + " line " +
                                    std::to_string(i) + " " +
                                    std::string(100, 'x'));
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }
    const std::string captured = testing::internal::GetCapturedStderr();
    global_log_level() = saved;

    std::istringstream lines(captured);
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        ++count;
        // "[info ] thread T line I xxx...x" — reconstructible iff unsheared.
        std::istringstream fields(line);
        std::string tag1, tag2, word_thread, t_str, word_line, i_str, payload;
        fields >> tag1 >> tag2 >> word_thread >> t_str >> word_line >> i_str >>
            payload;
        ASSERT_EQ(tag1 + tag2, "[info]") << "sheared line: " << line;
        ASSERT_EQ(word_thread, "thread") << "sheared line: " << line;
        ASSERT_EQ(word_line, "line") << "sheared line: " << line;
        ASSERT_EQ(payload, std::string(100, 'x')) << "sheared line: " << line;
    }
    EXPECT_EQ(count, k_threads * k_lines);
}

// ------------------------------------------------------ trace correlation ---

TEST(log, format_pins_the_trace_prefix) {
    EXPECT_EQ(format_log_line(log_level::info, "msg", 0, 0x1234),
              "[info ] [trace=0000000000001234] msg\n");
    EXPECT_EQ(format_log_line(log_level::error, "boom", 0,
                              0xdeadbeefcafef00dULL),
              "[error] [trace=deadbeefcafef00d] boom\n");
    // Zero trace id means "no active span": no prefix.
    EXPECT_EQ(format_log_line(log_level::info, "msg", 0, 0), "[info ] msg\n");
    // The prefix composes with the truncation note.
    EXPECT_EQ(format_log_line(log_level::warn, "w", 3, 0x1),
              "[warn ] [trace=0000000000000001] w [truncated 3 bytes]\n");
}

TEST(log, lines_inside_an_active_span_carry_the_trace_prefix) {
    const log_level saved = global_log_level();
    global_log_level() = log_level::info;

    obs::trace_context ctx;
    ctx.trace_id = 0xabcdef0123456789ULL;
    ctx.span_id = 0x42;
    testing::internal::CaptureStderr();
    {
        obs::scoped_trace active(ctx);
        log_message(log_level::info, "inside");
    }
    log_message(log_level::info, "outside");
    const std::string captured = testing::internal::GetCapturedStderr();
    global_log_level() = saved;

    EXPECT_NE(captured.find("[info ] [trace=abcdef0123456789] inside\n"),
              std::string::npos)
        << captured;
    EXPECT_NE(captured.find("[info ] outside\n"), std::string::npos) << captured;
    // The restored (empty) context must not leak a stale prefix.
    EXPECT_EQ(captured.find("[trace=abcdef0123456789] outside"),
              std::string::npos)
        << captured;
}

// -------------------------------------------------------- atomic file IO ---

namespace {

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

}  // namespace

TEST(atomic_file, writes_creates_parents_and_leaves_no_temp_behind) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "meek_atomic_file_test";
    std::filesystem::remove_all(dir);

    const std::filesystem::path target = dir / "nested" / "out.json";
    ASSERT_TRUE(write_file_atomic(target.string(), "{\"a\":1}\n"));
    EXPECT_EQ(slurp(target), "{\"a\":1}\n");

    // Overwrite replaces the full contents, not appends.
    ASSERT_TRUE(write_file_atomic(target.string(), "short"));
    EXPECT_EQ(slurp(target), "short");

    // No *.tmp staging files may survive a successful rename.
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        EXPECT_NE(entry.path().extension(), ".tmp")
            << "stray staging file: " << entry.path();
    }
    std::filesystem::remove_all(dir);
}

TEST(atomic_file, reports_failure_for_unwritable_destinations) {
    // A directory path cannot be renamed over.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "meek_atomic_file_dir";
    std::filesystem::create_directories(dir);
    EXPECT_FALSE(write_file_atomic(dir.string(), "contents"));
    std::filesystem::remove_all(dir);
}

TEST(cli, counts_and_lists_are_whole_numbers_in_range) {
    u64 n = 0;
    EXPECT_TRUE(parse_count("0", 0, 10, &n));
    EXPECT_EQ(n, 0u);
    for (const char* bad :
         {"", "-1", "+1", " 1", "1x", "0x10", "11", "99999999999999999999"}) {
        EXPECT_FALSE(parse_count(bad, 0, 10, &n)) << bad;
    }
    std::vector<u64> list;
    EXPECT_TRUE(parse_count_list("1,4,16", 1, 64, &list));
    EXPECT_EQ(list, (std::vector<u64>{1, 4, 16}));
    for (const char* bad : {"", ",", "4,", ",4", "4,,8", "4,x", "0,4", "4,65"}) {
        EXPECT_FALSE(parse_count_list(bad, 1, 64, &list)) << bad;
    }
    std::vector<std::string> items;
    EXPECT_TRUE(split_list("f2,axi", &items));
    EXPECT_EQ(items, (std::vector<std::string>{"f2", "axi"}));
    EXPECT_FALSE(split_list("f2,", &items));
}

TEST(cli, flag_reader_takes_both_value_forms_and_switches) {
    const char* args[] = {"tool",      "--threads", "4",     "--qps=1,2", "--quick",
                          "--name=a=b", "--quick=1", nullptr};
    flag_reader r(7, const_cast<char**>(args));
    ASSERT_TRUE(r.next());
    ASSERT_TRUE(r.is("--threads"));
    EXPECT_EQ(r.count(0, 1024), 4u);
    ASSERT_TRUE(r.next());
    ASSERT_TRUE(r.is("--qps"));
    EXPECT_EQ(r.count_list(1), (std::vector<u64>{1, 2}));
    ASSERT_TRUE(r.next());
    EXPECT_TRUE(r.is_switch("--quick"));
    ASSERT_TRUE(r.next());
    ASSERT_TRUE(r.is("--name"));
    EXPECT_EQ(r.text(), "a=b");
    ASSERT_TRUE(r.next());
    EXPECT_FALSE(r.is_switch("--quick"));  // a switch takes no value
    EXPECT_FALSE(r.next());
}

TEST(cli, flag_reader_exits_2_on_a_bad_value) {
    const char* args[] = {"tool", "--workers", "4,x", "--repeat", nullptr};
    EXPECT_EXIT(
        {
            flag_reader r(3, const_cast<char**>(args));
            r.next();
            r.count_list(1, 1024);
        },
        ::testing::ExitedWithCode(2), "--workers: '4,x' is not a comma-separated list");
    EXPECT_EXIT(
        {
            flag_reader r(4, const_cast<char**>(args));
            r.next();
            r.text();
            r.next();
            r.count(1);
        },
        ::testing::ExitedWithCode(2), "--repeat requires a value");
}

}  // namespace
}  // namespace meek
