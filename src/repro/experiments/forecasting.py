"""Figure 10 and Table 7: forecasting accuracy of OrgLinear vs baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


from ..analysis.reporting import format_table
from ..core.gde import (
    FORECASTING_BASELINES,
    ForecastEvaluation,
    OrgLinear,
    OrgLinearConfig,
    build_window_dataset,
    evaluate_forecast,
    train_test_split_dataset,
)
from ..workloads import DEFAULT_HOLIDAYS, default_organizations, generate_org_demand_matrix


@dataclass
class ForecastingExperimentConfig:
    """Configuration of the forecasting comparison."""

    history_weeks: int = 8
    input_length: int = 168
    horizon: int = 24
    stride: int = 6
    test_fraction: float = 0.25
    seed: int = 0
    #: which baselines to run (defaults to all six of Figure 10)
    baselines: Sequence[str] = field(
        default_factory=lambda: list(FORECASTING_BASELINES)
    )
    orglinear_epochs: int = 60


@dataclass
class ForecastingResult:
    """Evaluation metrics per forecasting model."""

    evaluations: Dict[str, ForecastEvaluation] = field(default_factory=dict)

    def report(self) -> str:
        rows = []
        for name, ev in self.evaluations.items():
            d = ev.as_dict()
            rows.append(
                [
                    name,
                    d["MAE"],
                    d["MSE"],
                    d["RMSE"],
                    d["MAPE"],
                    d["0.9-MAQE"],
                    d["0.95-MAQE"],
                    d["training_time_s"],
                ]
            )
        return format_table(
            ["Model", "MAE", "MSE", "RMSE", "MAPE", "0.9-MAQE", "0.95-MAQE", "train(s)"],
            rows,
            title="Figure 10 / Table 7 (GPU demand forecasting accuracy)",
            float_format="{:,.4f}",
        )

    def best_model(self, metric: str = "mae") -> str:
        return min(self.evaluations, key=lambda name: getattr(self.evaluations[name], metric))


def build_forecasting_datasets(config: Optional[ForecastingExperimentConfig] = None):
    """Generate the per-organization demand series and train/test windows."""
    config = config or ForecastingExperimentConfig()
    organizations = default_organizations(config.seed)
    hours = config.history_weeks * 168
    history = generate_org_demand_matrix(organizations, hours, seed=config.seed)
    attributes = {o.name: o.business_attributes() for o in organizations}
    dataset = build_window_dataset(
        history,
        attributes,
        input_length=config.input_length,
        horizon=config.horizon,
        stride=config.stride,
        holidays=set(DEFAULT_HOLIDAYS),
    )
    return train_test_split_dataset(dataset, config.test_fraction)


def run_forecasting_experiment(
    config: Optional[ForecastingExperimentConfig] = None,
) -> ForecastingResult:
    """Regenerate the Figure 10 comparison and the Table 7 quantile metrics."""
    config = config or ForecastingExperimentConfig()
    train, test = build_forecasting_datasets(config)
    y_true = test.arrays()["Y"]
    result = ForecastingResult()

    orglinear = OrgLinear(
        OrgLinearConfig(
            input_length=config.input_length,
            horizon=config.horizon,
            epochs=config.orglinear_epochs,
            seed=config.seed,
        )
    ).fit(train)
    mu, sigma = orglinear.predict(test)
    result.evaluations["OrgLinear"] = evaluate_forecast(y_true, mu, sigma, orglinear.training_time)

    for name in config.baselines:
        model_cls = FORECASTING_BASELINES[name]
        model = model_cls()
        model.fit(train)
        mu, sigma = model.predict(test)
        result.evaluations[name] = evaluate_forecast(y_true, mu, sigma, model.training_time)
    return result
