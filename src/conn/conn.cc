#include "conn/conn.hh"

#include "sim/logging.hh"

namespace rpcvalet::conn {

ConnSpec
ConnConfig::schedulerSpec() const
{
    if (active() && !scheduler.name.empty())
        return scheduler;
    ConnSpec spec;
    spec.name = "all";
    return spec;
}

void
ConnConfig::validate() const
{
    if (!active())
        return;
    // Resolve through the registry: an unknown scheduler name or a bad
    // parameter dies here, before any event runs.
    (void)ConnRegistry::instance().make(schedulerSpec());
}

ConnConfig
parseConnConfig(const std::string &text)
{
    ConnSpec spec = ConnSpec::parse(text);
    ConnConfig cfg;
    // Population / capacity keys ride the spec string for flag
    // ergonomics ("--connections=grouped:size=40,clients=2048") but
    // belong to the config, not the scheduler: peel them off before
    // the scheduler factory sees (and expectKeys-validates) the rest.
    // The same bounds as the scenario [connections] keys.
    cfg.numClients = static_cast<std::uint32_t>(
        spec.uintParam("clients", 0, 1, 1u << 24));
    cfg.qpCapacity = static_cast<std::uint32_t>(
        spec.uintParam("qp_capacity", 0, 0, UINT32_MAX));
    spec.params.erase("clients");
    spec.params.erase("qp_capacity");
    cfg.scheduler = spec;
    if (cfg.numClients == 0) {
        sim::fatal(sim::strfmt(
            "connection spec '%s' needs a client population — add "
            "clients=N (N >= 1); clients=0 would disable the "
            "subsystem, which is spelled by omitting --connections "
            "entirely",
            text.c_str()));
    }
    cfg.validate();
    return cfg;
}

std::uint32_t
effectiveQpCapacity(const ConnConfig &cfg)
{
    if (cfg.qpCapacity > 0)
        return cfg.qpCapacity;
    const ConnSpec spec = cfg.schedulerSpec();
    if (spec.name == "grouped") {
        // ScaleRPC invariant I2: the physical pool is sized for
        // exactly one connection group.
        return static_cast<std::uint32_t>(
            spec.uintParam("size", 40, 0, UINT32_MAX));
    }
    return 64;
}

} // namespace rpcvalet::conn
