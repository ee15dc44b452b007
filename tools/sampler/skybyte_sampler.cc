/**
 * @file
 * SIGPROF sampler, loaded with LD_PRELOAD into any program. It runs
 * only when $SKYBYTE_SAMPLES names an output file. Every
 * $SKYBYTE_SAMPLE_US microseconds of process CPU time (default 1000)
 * it records the interrupted program counter. At exit it writes one
 * "obj <load base> <start> <end> <path>" line per loaded object with
 * executable code (the program first), then one "pc <address>" line
 * per sample, all hex. tools/skybyte_profile.py runs a program under
 * the sampler and symbolizes the file.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <link.h>
#include <string>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include "common/fs.h"

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 21;
std::uintptr_t samples[kMaxSamples];
std::atomic<std::size_t> taken{0};

void
onTick(int, siginfo_t *, void *context)
{
    const auto &mc = static_cast<ucontext_t *>(context)->uc_mcontext;
#if defined(__x86_64__)
    const auto pc = static_cast<std::uintptr_t>(mc.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(mc.pc);
#else
#error "skybyte_sampler: unsupported architecture"
#endif
    const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = pc;
}

void
setTimer(long us)
{
    itimerval t{};
    t.it_interval.tv_sec = us / 1000000;
    t.it_interval.tv_usec = us % 1000000;
    t.it_value = t.it_interval;
    setitimer(ITIMER_PROF, &t, nullptr);
}

int
appendObject(dl_phdr_info *info, std::size_t, void *out)
{
    std::uintptr_t lo = UINTPTR_MAX;
    std::uintptr_t hi = 0;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0)
            continue;
        lo = std::min<std::uintptr_t>(lo, info->dlpi_addr + ph.p_vaddr);
        hi = std::max<std::uintptr_t>(
            hi, info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
    }
    if (hi == 0)
        return 0;
    std::string &text = *static_cast<std::string *>(out);
    // The program itself comes first, with an empty name.
    char exe[4096] = {};
    const char *name = info->dlpi_name;
    if (text.empty() && readlink("/proc/self/exe", exe, sizeof exe - 1) > 0)
        name = exe;
    char line[64];
    std::snprintf(line, sizeof line, "obj %lx %lx %lx ",
                  static_cast<unsigned long>(info->dlpi_addr),
                  static_cast<unsigned long>(lo),
                  static_cast<unsigned long>(hi));
    text += std::string(line) + name + "\n";
    return 0;
}

__attribute__((constructor)) void
start()
{
    if (std::getenv("SKYBYTE_SAMPLES") == nullptr)
        return;
    struct sigaction sa{};
    sa.sa_sigaction = onTick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, nullptr);
    const char *us = std::getenv("SKYBYTE_SAMPLE_US");
    setTimer(us != nullptr ? std::atol(us) : 1000);
}

__attribute__((destructor)) void
stop()
{
    const char *path = std::getenv("SKYBYTE_SAMPLES");
    if (path == nullptr)
        return;
    setTimer(0);
    std::string text;
    dl_iterate_phdr(appendObject, &text);
    const std::size_t n = std::min(taken.load(), kMaxSamples);
    char line[32];
    for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(line, sizeof line, "pc %lx\n",
                      static_cast<unsigned long>(samples[i]));
        text += line;
    }
    try {
        skybyte::writeFileAtomic(path, text);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_sampler: %s\n", e.what());
    }
}

} // namespace
