/**
 * @file
 * One spec type, registry and registrar for every component axis.
 *
 * The simulator's pluggable components — dispatch policies, arrival
 * processes, workloads, cluster routers, faults and connection
 * schedulers — are each named by a sim::Spec string and built by a
 * factory looked up by that name. What differs between the six axes
 * fits in one small struct, declared in the axis's own header:
 *
 *   struct PolicyAxis
 *   {
 *       static constexpr const char *label = "policy";  // Spec::what
 *       static constexpr const char *defaultName = "greedy";
 *       static constexpr const char *noun = "dispatch policy";
 *       static constexpr const char *plural = "policies";
 *       using Factory = std::function<std::unique_ptr<DispatchPolicy>(
 *           const sim::TypedSpec<PolicyAxis> &)>;
 *       static void linkBuiltins(); // beside the built-in registrars
 *   };
 *
 * and three templates supply the rest:
 *
 *  - TypedSpec<Axis>  a sim::Spec that carries the axis label in its
 *                     diagnostics and defaults to the axis's default
 *                     name (empty for fault and conn)
 *  - Registry<Axis>   the process-wide name -> factory table
 *  - Registrar<Axis>  registers a factory at static-initialization
 *                     time, including from outside src/ (see
 *                     examples/custom_*_playground.cc)
 *
 * Each axis header spells them XSpec, XRegistry and XRegistrar. A
 * factory may take arguments after the spec (arrival's target rate);
 * such an axis also declares a static checkArgs(spec, args...), which
 * make() runs between the name lookup and the factory call.
 *
 * linkBuiltins() is an empty function defined in the translation unit
 * that holds the axis's built-in registrars. instance() calls it, which
 * forces that archive member — whose only other entry points are its
 * static registrars — into every binary that uses the registry.
 *
 * Lookups are runtime-only (from main onward): a make() call during
 * another translation unit's static initialization may run before the
 * built-ins have registered.
 */

#ifndef RPCVALET_SIM_REGISTRY_HH
#define RPCVALET_SIM_REGISTRY_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/spec.hh"

namespace rpcvalet::sim {

/** A component selection on one axis: registry name plus parameters. */
template <typename Axis>
struct TypedSpec : public Spec
{
    /** The axis's default component. */
    TypedSpec()
    {
        what = Axis::label;
        name = Axis::defaultName;
    }

    /** Implicit: parse a spec string (fatal on malformed input). */
    TypedSpec(const char *text) : TypedSpec(parse(text)) {}
    TypedSpec(const std::string &text) : TypedSpec(parse(text)) {}

    /** Parse "name" or "name:k=v,k=v" (see Spec::parse). */
    static TypedSpec
    parse(const std::string &text)
    {
        TypedSpec spec;
        static_cast<Spec &>(spec) = Spec::parse(text, Axis::label);
        return spec;
    }
};

/** Process-wide name -> factory table for one axis. */
template <typename Axis>
class Registry
{
  public:
    /** Builds a component from its (validated) spec. */
    using Factory = typename Axis::Factory;
    using Product = typename Factory::result_type;

    /** The process-wide registry (created on first use). */
    static Registry &
    instance()
    {
        static Registry registry;
        Axis::linkBuiltins();
        return registry;
    }

    /** Register @p factory under @p name; duplicate names are fatal. */
    void
    add(const std::string &name, Factory factory)
    {
        if (name.empty())
            fatal(std::string(Axis::noun) + " registered with an empty name");
        if (factory == nullptr) {
            fatal(std::string(Axis::noun) + " '" + name +
                  "' has a null factory");
        }
        if (!factories_.emplace(name, std::move(factory)).second) {
            fatal(std::string(Axis::noun) + " '" + name +
                  "' is already registered (duplicate registration)");
        }
    }

    bool
    contains(const std::string &name) const
    {
        return factories_.count(name) > 0;
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(factories_.size());
        for (const auto &entry : factories_)
            out.push_back(entry.first); // std::map iterates in order
        return out;
    }

    /** Sorted names joined with ", " (for error messages and help). */
    std::string
    namesJoined() const
    {
        std::string out;
        for (const auto &entry : factories_) {
            if (!out.empty())
                out += ", ";
            out += entry.first;
        }
        return out;
    }

    /**
     * fatal() unless @p name is registered, with the message listing
     * every registered name. make() runs the same check.
     */
    void
    expectRegistered(const std::string &name) const
    {
        (void)factory(name);
    }

    /**
     * Instantiate the component @p spec names, passing @p args on to
     * its factory. An unregistered name is fatal (see
     * expectRegistered()); a factory that returns null is a simulator
     * bug and panics.
     */
    template <typename... Args>
    Product
    make(const TypedSpec<Axis> &spec, Args... args) const
    {
        const Factory &build = factory(spec.name);
        if constexpr (sizeof...(Args) > 0)
            Axis::checkArgs(spec, args...);
        Product product = build(spec, args...);
        if (product == nullptr) {
            panic("factory for " + std::string(Axis::noun) + " '" + spec.name +
                  "' returned null");
        }
        return product;
    }

  private:
    Registry() = default;

    const Factory &
    factory(const std::string &name) const
    {
        const auto it = factories_.find(name);
        if (it == factories_.end()) {
            fatal("unknown " + std::string(Axis::noun) + " '" + name +
                  "' (registered " + Axis::plural + ": " + namesJoined() +
                  ")");
        }
        return it->second;
    }

    std::map<std::string, Factory> factories_;
};

/** Registers a factory at static-initialization time. */
template <typename Axis>
struct Registrar
{
    Registrar(const std::string &name,
              typename Registry<Axis>::Factory factory)
    {
        Registry<Axis>::instance().add(name, std::move(factory));
    }
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_REGISTRY_HH
